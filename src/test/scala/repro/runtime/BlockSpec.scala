package repro.runtime

import repro.SparkSpec
import repro.runtime.Ops._

/** Local kernel correctness: every op against a naive reference, dense and
  * sparse, plus property checks over random shapes. */
class BlockSpec extends SparkSpec {

  private def ref(rows: Int, cols: Int)(f: (Int, Int) => Double): MatrixBlock =
    MatrixBlock.tabulate(rows, cols)(f)

  private def assertEq(a: MatrixBlock, b: MatrixBlock, tol: Double = 1e-12): Unit = {
    assert(a.rows == b.rows && a.cols == b.cols, s"dims ${a.rows}x${a.cols} vs ${b.rows}x${b.cols}")
    assert(MatrixBlock.maxAbsDiff(a, b) <= tol, s"maxAbsDiff=${MatrixBlock.maxAbsDiff(a, b)}")
  }

  private val d1 = MatrixBlock.rand(17, 9, 1.0, 1, min = -2, max = 2)
  private val d2 = MatrixBlock.rand(17, 9, 1.0, 2, min = -2, max = 2)
  private val s1 = MatrixBlock.rand(17, 9, 0.3, 3, min = -2, max = 2)
  private val s2 = MatrixBlock.rand(17, 9, 0.4, 4, min = -2, max = 2)

  test("dense round trip: toSparse.toDense") {
    assertEq(d1, d1.toDense.toSparse.toDense)
  }
  test("sparse round trip: toDense.toSparse") {
    assertEq(s1, s1.toSparse.toDense.toSparse)
  }
  test("rand sparse produces CSR with declared shape") {
    assert(s1.isSparseFormat && s1.rows == 17 && s1.cols == 9)
    assert(s1.nnz > 0 && s1.nnz < 17 * 9)
  }
  test("get matches tabulate") {
    val m = MatrixBlock.tabulate(5, 4)((i, j) => i * 10.0 + j)
    for (i <- 0 until 5; j <- 0 until 4) assert(m.get(i, j) == i * 10.0 + j)
  }
  test("copyRow copies row content into a reused buffer (dense and sparse)") {
    val buf = Array.fill(9)(Double.NaN) // stale content must be overwritten
    for (m <- Seq(d1, s1); i <- Seq(0, 7, 16)) {
      m.copyRow(i, buf)
      assert(buf.toSeq == (0 until 9).map(m.get(i, _)))
    }
  }

  for (op <- Seq(Exp, Log, Sqrt, Abs, Sign, Neg, Sigmoid, Neq0, Pow2)) {
    test(s"unary ${op.name} dense vs reference") {
      val in = if (op == Log || op == Sqrt) LocalOps.unary(Abs, d1) else d1
      assertEq(LocalOps.unary(op, in), ref(17, 9)((i, j) => op(in.get(i, j))))
    }
    test(s"unary ${op.name} sparse vs reference") {
      val in = if (op == Log || op == Sqrt) LocalOps.unary(Abs, s1) else s1
      assertEq(LocalOps.unary(op, in), ref(17, 9)((i, j) => op(in.get(i, j))))
    }
  }

  for (op <- Seq(Plus, Minus, Mult, Div, MinOp, MaxOp, Neq, Eq, Gt, Lt, Ge, Le)) {
    test(s"binary ${op.name} dense-dense / sparse-dense / sparse-sparse") {
      // division against a rhs with zeros produces NaN/Inf cells in the
      // naive reference (0/0) that sparse-safe kernels rightly skip
      val pairs =
        if (op == Div) Seq((d1, d2), (s1, d2))
        else Seq((d1, d2), (s1, d2), (s1, s2), (d1, s2))
      for ((a, b) <- pairs)
        assertEq(LocalOps.binary(op, a, b), ref(17, 9)((i, j) => op(a.get(i, j), b.get(i, j))))
    }
  }

  test("binary with column-vector broadcast") {
    val v = MatrixBlock.rand(17, 1, 1.0, 5)
    assertEq(LocalOps.binary(Plus, d1, v), ref(17, 9)((i, j) => d1.get(i, j) + v.get(i, 0)))
  }
  test("binary with row-vector broadcast") {
    val v = MatrixBlock.rand(1, 9, 1.0, 6)
    assertEq(LocalOps.binary(Mult, d1, v), ref(17, 9)((i, j) => d1.get(i, j) * v.get(0, j)))
  }
  test("binary with scalar rhs") {
    val s = MatrixBlock.dense(1, 1, Array(3.5))
    assertEq(LocalOps.binary(Mult, d1, s), ref(17, 9)((i, j) => d1.get(i, j) * 3.5))
  }
  test("binaryScalarLeft") {
    assertEq(LocalOps.binaryScalarLeft(Minus, 1.0, d1), ref(17, 9)((i, j) => 1.0 - d1.get(i, j)))
    assertEq(LocalOps.binaryScalarLeft(Mult, 2.0, s1), ref(17, 9)((i, j) => 2.0 * s1.get(i, j)))
  }
  test("sparse-safe binary keeps sparse format") {
    assert(LocalOps.binary(Mult, s1, d2).isSparseFormat)
    assert(LocalOps.binaryScalarRight(Mult, s1, 2.0).isSparseFormat)
  }

  private def mmRef(a: MatrixBlock, b: MatrixBlock): MatrixBlock =
    ref(a.rows, b.cols) { (i, k) =>
      (0 until a.cols).map(j => a.get(i, j) * b.get(j, k)).sum
    }

  test("matmul dense x dense") {
    val a = MatrixBlock.rand(7, 5, 1.0, 8, min = -1, max = 1)
    val b = MatrixBlock.rand(5, 6, 1.0, 9, min = -1, max = 1)
    assertEq(LocalOps.matmul(a, b), mmRef(a, b), 1e-9)
  }
  test("matmul sparse x dense") {
    val a = MatrixBlock.rand(7, 5, 0.4, 10, min = -1, max = 1)
    val b = MatrixBlock.rand(5, 6, 1.0, 11, min = -1, max = 1)
    assertEq(LocalOps.matmul(a, b), mmRef(a, b), 1e-9)
  }
  test("matmul dense x sparse") {
    val a = MatrixBlock.rand(7, 5, 1.0, 12, min = -1, max = 1)
    val b = MatrixBlock.rand(5, 6, 0.4, 13, min = -1, max = 1)
    assertEq(LocalOps.matmul(a, b), mmRef(a, b), 1e-9)
  }
  test("matmul matrix x vector") {
    val v = MatrixBlock.rand(9, 1, 1.0, 14)
    assertEq(LocalOps.matmul(d1, v), mmRef(d1, v), 1e-9)
  }

  test("transpose dense") {
    assertEq(LocalOps.transpose(d1), ref(9, 17)((i, j) => d1.get(j, i)))
  }
  test("transpose sparse stays sparse and correct") {
    val t = LocalOps.transpose(s1)
    assert(t.isSparseFormat)
    assertEq(t, ref(9, 17)((i, j) => s1.get(j, i)))
  }
  test("double transpose is identity") {
    assertEq(LocalOps.transpose(LocalOps.transpose(s1)), s1)
  }

  for ((f, name) <- Seq((SumAgg, "sum"), (MinAgg, "min"), (MaxAgg, "max"));
       m <- Seq(("dense", d1), ("sparse", s1))) {
    test(s"full $name over ${m._1}") {
      val vals = for (i <- 0 until 17; j <- 0 until 9) yield m._2.get(i, j)
      val expect = vals.foldLeft(f.init)(f(_, _))
      assert(math.abs(LocalOps.agg(f, FullDir, m._2).get(0, 0) - expect) < 1e-9)
    }
    test(s"row $name over ${m._1}") {
      val out = LocalOps.agg(f, RowDir, m._2)
      for (i <- 0 until 17) {
        val expect = (0 until 9).map(m._2.get(i, _)).foldLeft(f.init)(f(_, _))
        assert(math.abs(out.get(i, 0) - expect) < 1e-9, s"row $i")
      }
    }
    test(s"col $name over ${m._1}") {
      val out = LocalOps.agg(f, ColDir, m._2)
      for (j <- 0 until 9) {
        val expect = (0 until 17).map(m._2.get(_, j)).foldLeft(f.init)(f(_, _))
        assert(math.abs(out.get(0, j) - expect) < 1e-9, s"col $j")
      }
    }
  }

  test("rowSlice dense and sparse") {
    for (m <- Seq(d1, s1)) {
      val sl = LocalOps.rowSlice(m, 3, 9)
      assertEq(sl, ref(6, 9)((i, j) => m.get(i + 3, j)))
    }
  }
  test("rbind stacks blocks") {
    val st = LocalOps.rbind(Seq(LocalOps.rowSlice(d1, 0, 5), LocalOps.rowSlice(d1, 5, 17)))
    assertEq(st, d1)
  }

  test("property: matmul associativity with vector (A(Bv)) == ((AB)v)") {
    for (seed <- 1L to 40L) {
      val a = MatrixBlock.rand(6, 5, 1.0, seed, min = -1, max = 1)
      val b = MatrixBlock.rand(5, 4, 0.5, seed + 1, min = -1, max = 1)
      val v = MatrixBlock.rand(4, 1, 1.0, seed + 2)
      val l = LocalOps.matmul(a, LocalOps.matmul(b, v))
      val r = LocalOps.matmul(LocalOps.matmul(a, b), v)
      assert(MatrixBlock.maxAbsDiff(l, r) < 1e-9)
    }
  }
  test("property: sum(X + Y) == sum(X) + sum(Y)") {
    for (seed <- 1L to 40L) {
      val x = MatrixBlock.rand(8, 7, 0.5, seed, min = -1, max = 1)
      val y = MatrixBlock.rand(8, 7, 1.0, seed + 5, min = -1, max = 1)
      val l = LocalOps.agg(SumAgg, FullDir, LocalOps.binary(Plus, x, y)).get(0, 0)
      val r = LocalOps.agg(SumAgg, FullDir, x).get(0, 0) + LocalOps.agg(SumAgg, FullDir, y).get(0, 0)
      assert(math.abs(l - r) < 1e-9)
    }
  }
  test("property: transpose preserves sum") {
    for (seed <- 1L to 40L) {
      val x = MatrixBlock.rand(9, 6, 0.4, seed, min = -1, max = 1)
      val l = LocalOps.agg(SumAgg, FullDir, LocalOps.transpose(x)).get(0, 0)
      val r = LocalOps.agg(SumAgg, FullDir, x).get(0, 0)
      assert(math.abs(l - r) < 1e-9)
    }
  }
}
