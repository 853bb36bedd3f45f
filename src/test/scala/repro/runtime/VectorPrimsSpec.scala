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
    assert(VectorPrims.vectSum(a) == 10.0)
  }
  test("vectMatMultWrite dense row times matrix into a reused buffer") {
    // B = [[1,2],[3,4]] row-major; a=[1,2] -> [7,10]; stale buffer content is overwritten
    val out = Array(100.0, 100.0)
    assert(VectorPrims.vectMatMultWrite(Array(1.0, 2.0), Array(1.0, 2.0, 3.0, 4.0), out, 2, 2) eq out)
    assert(out.toSeq == Seq(7.0, 10.0))
  }
  test("vectOuterMultAdd dense") {
    val c = new Array[Double](4)
    VectorPrims.vectOuterMultAdd(Array(1.0, 2.0), Array(3.0, 4.0), c, 0, 2, 2)
    assert(c.toSeq == Seq(3.0, 4.0, 6.0, 8.0))
  }
  test("vectAdd accumulates") {
    val c = Array(1.0, 1.0, 1.0, 1.0)
    VectorPrims.vectAdd(a, c)
    assert(c.toSeq == Seq(2.0, 3.0, 4.0, 5.0))
  }
}
