package repro.runtime

/** Library of row-vector primitives shared by all generated Row/Outer
  * operators — the analogue of SystemML's `LibSpoofPrimitives`.
  *
  * Sharing these among fused operators (instead of inlining their bodies
  * into generated code) is what keeps the instruction footprint of
  * generated operators small (paper §5.2, Fig. 10): the Java source that
  * [[repro.compiler.Codegen]] emits calls into this library instead of
  * inlining vector loops.
  *
  * A dense row is (values, offset, length). A sparse row is the `alen`
  * non-zeros at [apos, apos + alen) of (values, column indexes); each
  * sparse primitive equals its dense counterpart over the scattered row.
  */
object VectorPrims {

  /** c = a dot b over [ai, ai+len) x [bi, bi+len). */
  def dotProduct(a: Array[Double], b: Array[Double], ai: Int, bi: Int, len: Int): Double = {
    var s = 0.0
    var k = 0
    while (k < len) { s += a(ai + k) * b(bi + k); k += 1 }
    s
  }

  /** Sparse dot: sum over nz positions aix[apos,apos+alen) of avals * b[bi+col]. */
  def dotProduct(avals: Array[Double], b: Array[Double], aix: Array[Int],
                 apos: Int, bi: Int, alen: Int): Double = {
    var s = 0.0
    var k = apos
    while (k < apos + alen) { s += avals(k) * b(bi + aix(k)); k += 1 }
    s
  }

  /** c[ci..] += s * a[ai..]. */
  def vectMultAdd(a: Array[Double], s: Double, c: Array[Double], ai: Int, ci: Int, len: Int): Unit = {
    var k = 0
    while (k < len) { c(ci + k) += s * a(ai + k); k += 1 }
  }

  /** c += s * a over sparse positions. */
  def vectMultAdd(avals: Array[Double], s: Double, c: Array[Double], aix: Array[Int],
                  apos: Int, ci: Int, alen: Int): Unit = {
    var k = apos
    while (k < apos + alen) { c(ci + aix(k)) += s * avals(k); k += 1 }
  }

  /** Sum of a[ai, ai+len); over a sparse row's values, the sum of its
    * non-zeros (pass apos and alen). */
  def vectSum(a: Array[Double], ai: Int, len: Int): Double = {
    var s = 0.0
    var k = ai
    while (k < ai + len) { s += a(k); k += 1 }
    s
  }

  /** c (n x m, row-major) += outer(a[ai, ai+n), b[bi, bi+m)). */
  def vectOuterMultAdd(a: Array[Double], b: Array[Double], c: Array[Double],
                       ai: Int, bi: Int, n: Int, m: Int): Unit = {
    var j = 0
    while (j < n) {
      val av = a(ai + j)
      if (av != 0.0) vectMultAdd(b, av, c, bi, j * m, m)
      j += 1
    }
  }

  /** c (len x m, row-major) += outer(a, b[bi, bi+m)) for a sparse row a. */
  def vectOuterMultAdd(avals: Array[Double], aix: Array[Int], apos: Int, alen: Int,
                       b: Array[Double], c: Array[Double], bi: Int, m: Int): Unit = {
    var k = apos
    while (k < apos + alen) { vectMultAdd(b, avals(k), c, bi, aix(k) * m, m); k += 1 }
  }

  /** out = a[ai, ai+n) (1 x n) times dense B (n x m), into a reused buffer. */
  def vectMatMultWrite(a: Array[Double], ai: Int, bvals: Array[Double], out: Array[Double],
                       n: Int, m: Int): Array[Double] = {
    java.util.Arrays.fill(out, 0.0)
    var j = 0
    while (j < n) {
      val av = a(ai + j)
      if (av != 0.0) vectMultAdd(bvals, av, out, j * m, 0, m)
      j += 1
    }
    out
  }

  /** out = sparse row a (1 x n) times dense B (n x m), into a reused buffer. */
  def vectMatMultWrite(avals: Array[Double], aix: Array[Int], apos: Int, alen: Int,
                       bvals: Array[Double], out: Array[Double], m: Int): Array[Double] = {
    java.util.Arrays.fill(out, 0.0)
    var k = apos
    while (k < apos + alen) { vectMultAdd(bvals, avals(k), out, aix(k) * m, 0, m); k += 1 }
    out
  }

  /** out = the sparse row a scattered into a dense buffer of its length. */
  def vectScatter(avals: Array[Double], aix: Array[Int], apos: Int, alen: Int,
                  out: Array[Double]): Array[Double] = {
    java.util.Arrays.fill(out, 0.0)
    var k = apos
    while (k < apos + alen) { out(aix(k)) = avals(k); k += 1 }
    out
  }

  /** c[ci..] += a[ai..] over len values. */
  def vectAdd(a: Array[Double], ai: Int, c: Array[Double], ci: Int, len: Int): Unit = {
    var k = 0
    while (k < len) { c(ci + k) += a(ai + k); k += 1 }
  }

  /** c += a over sparse positions. */
  def vectAdd(avals: Array[Double], aix: Array[Int], apos: Int, alen: Int, c: Array[Double]): Unit = {
    var k = apos
    while (k < apos + alen) { c(aix(k)) += avals(k); k += 1 }
  }
}
