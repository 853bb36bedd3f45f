package repro.runtime

import repro.SparkSpec

/** Shared vector-primitive library (the LibSpoofPrimitives analogue). */
class VectorPrimsSpec extends SparkSpec {

  private val a = Array(1.0, 2.0, 3.0, 4.0)
  private val b = Array(0.5, -1.0, 2.0, 0.0)

  test("dotProduct dense") {
    assert(VectorPrims.dotProduct(a, b, 0, 0, 4) == 1 * 0.5 - 2 + 6 + 0)
  }
  test("dotProduct with offsets") {
    assert(VectorPrims.dotProduct(a, b, 1, 1, 2) == 2.0 * -1.0 + 3.0 * 2.0)
  }
  test("dotProduct sparse") {
    val vals = Array(2.0, 4.0); val idx = Array(1, 3)
    assert(VectorPrims.dotProduct(vals, b, idx, 0, 0, 2) == 2.0 * -1.0 + 4.0 * 0.0)
  }
  test("vectMultAdd dense accumulates") {
    val c = Array(1.0, 1.0, 1.0, 1.0)
    VectorPrims.vectMultAdd(a, 2.0, c, 0, 0, 4)
    assert(c.toSeq == Seq(3.0, 5.0, 7.0, 9.0))
  }
  test("vectMultAdd sparse accumulates") {
    val c = new Array[Double](4)
    VectorPrims.vectMultAdd(Array(3.0), 2.0, c, Array(2), 0, 0, 1)
    assert(c.toSeq == Seq(0.0, 0.0, 6.0, 0.0))
  }
  test("vectSum") {
    assert(VectorPrims.vectSum(a, 0, 4) == 10.0)
    assert(VectorPrims.vectSum(a, 1, 2) == 5.0)
  }
  test("vectMatMultWrite dense row times matrix into a reused buffer") {
    // B = [[1,2],[3,4]] row-major; a=[1,2] at offset 1 -> [7,10]; stale buffer content is overwritten
    val out = Array(100.0, 100.0)
    assert(VectorPrims.vectMatMultWrite(Array(9.0, 1.0, 2.0), 1, Array(1.0, 2.0, 3.0, 4.0), out, 2, 2) eq out)
    assert(out.toSeq == Seq(7.0, 10.0))
  }
  test("vectOuterMultAdd dense") {
    val c = new Array[Double](4)
    VectorPrims.vectOuterMultAdd(Array(1.0, 2.0), Array(0.0, 3.0, 4.0), c, 0, 1, 2, 2)
    assert(c.toSeq == Seq(3.0, 4.0, 6.0, 8.0))
  }
  test("vectAdd accumulates") {
    val c = Array(1.0, 1.0, 1.0, 1.0)
    VectorPrims.vectAdd(a, 0, c, 0, 4)
    assert(c.toSeq == Seq(2.0, 3.0, 4.0, 5.0))
  }

  // ---- sparse rows against their dense counterparts --------------------
  // A sparse row of length 5 at start position 2 of its arrays (two
  // entries of another row come first): no, one and all non-zeros.
  private val len = 5
  private val sparseRows: Seq[(String, Array[Int])] =
    Seq("no non-zeros" -> Array.empty[Int], "one non-zero" -> Array(3), "all non-zeros" -> Array(0, 1, 2, 3, 4))
  private val other = Array(7.0, -3.0) // the row stored before, never read
  private def sparse(cols: Array[Int]): (Array[Double], Array[Int]) =
    (other ++ cols.map(c => 0.5 + c * 1.25), Array(0, 1) ++ cols)
  private def dense(cols: Array[Int]): Array[Double] = {
    val d = new Array[Double](len)
    cols.foreach(c => d(c) = 0.5 + c * 1.25)
    d
  }
  private val bRow = Array(0.25, -1.5, 2.0, 3.0, -0.75, 1.0) // offset 1 holds a row of length 5
  private val bMat = Array.tabulate(len * 3)(k => (k % 7) - 2.5) // 5 x 3

  for ((name, cols) <- sparseRows) {
    val (avals, aix) = sparse(cols)
    val (apos, alen) = (2, cols.length)
    val d = dense(cols)
    test(s"sparse primitives equal their dense counterparts on a row with $name") {
      assert(VectorPrims.dotProduct(avals, bRow, aix, apos, 1, alen) == VectorPrims.dotProduct(d, bRow, 0, 1, len))
      assert(VectorPrims.vectSum(avals, apos, alen) == VectorPrims.vectSum(d, 0, len))

      def same(f: Array[Double] => Unit, g: Array[Double] => Unit, n: Int): Unit = {
        val (cs, cd) = (Array.fill(n)(1.0), Array.fill(n)(1.0))
        f(cs); g(cd)
        assert(cs.toSeq == cd.toSeq)
      }
      same(VectorPrims.vectMultAdd(avals, 2.0, _, aix, apos, 1, alen),
        VectorPrims.vectMultAdd(d, 2.0, _, 0, 1, len), len + 2)
      same(VectorPrims.vectAdd(avals, aix, apos, alen, _), VectorPrims.vectAdd(d, 0, _, 0, len), len)
      same(VectorPrims.vectOuterMultAdd(avals, aix, apos, alen, bRow, _, 1, 2),
        VectorPrims.vectOuterMultAdd(d, bRow, _, 0, 1, len, 2), len * 2)
      same(c => VectorPrims.vectMatMultWrite(avals, aix, apos, alen, bMat, c, 3),
        c => VectorPrims.vectMatMultWrite(d, 0, bMat, c, len, 3), 3)
      same(VectorPrims.vectScatter(avals, aix, apos, alen, _), c => System.arraycopy(d, 0, c, 0, len), len)
    }
  }
}
