package repro.runtime

/** Library of row-vector primitives shared by all generated Row/Outer
  * operators — the analogue of SystemML's `LibSpoofPrimitives`.
  *
  * Sharing these among fused operators (instead of inlining their bodies
  * into generated code) is what keeps the instruction footprint of
  * generated operators small (paper §5.2, Fig. 10): the Java source that
  * [[repro.compiler.Codegen]] emits calls into this library instead of
  * inlining vector loops.
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

  def vectSum(a: Array[Double]): Double = {
    var s = 0.0
    var k = 0
    while (k < a.length) { s += a(k); k += 1 }
    s
  }

  /** c (n x m, row-major) += outer(a_row, b) for a dense row a[ai, ai+n). */
  def vectOuterMultAdd(a: Array[Double], b: Array[Double], c: Array[Double],
                       ai: Int, n: Int, m: Int): Unit = {
    var j = 0
    while (j < n) {
      val av = a(ai + j)
      if (av != 0.0) {
        val coff = j * m
        var k = 0
        while (k < m) { c(coff + k) += av * b(k); k += 1 }
      }
      j += 1
    }
  }

  /** out = a (1 x n) times dense B (n x m), writing into a reused buffer. */
  def vectMatMultWrite(a: Array[Double], bvals: Array[Double], out: Array[Double], n: Int, m: Int): Array[Double] = {
    java.util.Arrays.fill(out, 0.0)
    var j = 0
    while (j < n) {
      val av = a(j)
      if (av != 0.0) {
        val boff = j * m
        var k = 0
        while (k < m) { out(k) += av * bvals(boff + k); k += 1 }
      }
      j += 1
    }
    out
  }

  /** c += a (dense accumulate). */
  def vectAdd(a: Array[Double], c: Array[Double]): Unit = {
    var k = 0
    while (k < a.length) { c(k) += a(k); k += 1 }
  }
}
