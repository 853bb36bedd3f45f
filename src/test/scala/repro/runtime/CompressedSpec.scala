package repro.runtime

import repro.SparkSpec
import repro.core._
import repro.compiler.CostBased
import repro.runtime.Ops._

/** CLA-lite compressed blocks and the compressed fast path of the fused
  * Cell skeleton (paper §5.2 "Compressed Linear Algebra"). */
class CompressedSpec extends SparkSpec {

  // few distinct values per column => high compression (like Airline78)
  private val base = MatrixBlock.tabulate(200, 8)((i, j) => ((i * 7 + j) % 5).toDouble)
  private val comp = CompressedBlock.compress(base)

  test("compress/decompress round trip") {
    assert(MatrixBlock.maxAbsDiff(comp.toDense, base) == 0.0)
  }
  test("random access get") {
    for (i <- Seq(0, 57, 199); j <- 0 until 8)
      assert(comp.get(i, j) == base.get(i, j))
  }
  test("nnz matches") {
    assert(comp.nnz == base.nnz)
  }
  test("compression ratio > 1 for repetitive data") {
    assert(comp.compressionRatio > 1.5, s"ratio ${comp.compressionRatio}")
  }
  test("dictionary sizes are the distinct value counts") {
    assert(comp.groups.forall(_.dict.length == 5))
    assert(comp.groups.forall(_.counts.sum == 200))
  }

  test("fused sum(X^2) over compressed executes on the dictionary") {
    val ctx = new ExecContext(GenMode(CostBased))
    implicit val c: ExecContext = ctx
    val x = ctx.bindLocal("X", comp)
    val got = ctx.eval(Seq((x ^ 2.0).sum)).head.toLocal.get(0, 0)
    val expect = (0 until 200).flatMap(i => (0 until 8).map(j => math.pow(base.get(i, j), 2))).sum
    assert(math.abs(got - expect) < 1e-9)
  }
  test("fused colSums(X*2) over compressed matches dense") {
    val ctx = new ExecContext(GenMode(CostBased))
    implicit val c: ExecContext = ctx
    val x = ctx.bindLocal("X", comp)
    val got = ctx.eval(Seq((x * 2.0).colSums)).head.toLocal
    val expect = LocalOps.agg(SumAgg, ColDir, LocalOps.binaryScalarRight(Mult, base, 2.0))
    assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9)
  }
  test("compressed with side inputs falls back to decompressed execution") {
    val yBlock = MatrixBlock.rand(200, 8, 1.0, 5)
    val ctx = new ExecContext(GenMode(CostBased))
    implicit val c: ExecContext = ctx
    val x = ctx.bindLocal("X", comp)
    val y = ctx.bindLocal("Y", yBlock)
    val got = ctx.eval(Seq((x * y).sum)).head.toLocal.get(0, 0)
    val expect = (for (i <- 0 until 200; j <- 0 until 8)
      yield base.get(i, j) * yBlock.get(i, j)).sum
    assert(math.abs(got - expect) < 1e-9)
  }
  test("hand-coded sum(X^2) over compressed (CLA baseline) matches") {
    val got = repro.compiler.HandCoded.sumSqLocal(comp).get(0, 0)
    val expect = (0 until 200).flatMap(i => (0 until 8).map(j => math.pow(base.get(i, j), 2))).sum
    assert(math.abs(got - expect) < 1e-9)
  }
  test("compressed base-mode ops decompress correctly") {
    val ctx = new ExecContext(BaseMode)
    implicit val c: ExecContext = ctx
    val x = ctx.bindLocal("X", comp)
    val got = ctx.eval(Seq((x + 1.0).sum)).head.toLocal.get(0, 0)
    val expect = (0 until 200).flatMap(i => (0 until 8).map(j => base.get(i, j) + 1.0)).sum
    assert(math.abs(got - expect) < 1e-9)
  }
}
