package repro.runtime

import repro.{SparkSpec, TestLA}
import repro.core._
import repro.compiler.{CostBased, FuseAll, FuseNoRedundancy}
import repro.runtime.Ops._

/** CLA-lite compressed blocks, the dictionary path of the multi-aggregate
  * skeleton, and every mode over compressed leaves (paper §5.2
  * "Compressed Linear Algebra"). */
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

  // 200,000 x 8 with 5 distinct values per column: decompressing it
  // would allocate 12.8 MB, the dictionaries hold 40 values
  private lazy val big = MatrixBlock.tabulate(200000, 8)((i, j) => ((i * 7 + j) % 5).toDouble)
  private lazy val bigComp = CompressedBlock.compress(big)

  /** Evaluates `expr` over the compressed 200,000 x 8 leaf in `mode` twice,
    * checks both results against `expect`, and returns the MB the warm
    * (second) evaluation allocated. */
  private def warmAllocMB(mode: ExecMode, expect: Double)(expr: MX => MX): Double = {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val ctx = new ExecContext(mode)
    val x = ctx.bindLocal("X", bigComp)
    def eval(): Double = ctx.eval(Seq(expr(x))).head.toLocal.get(0, 0)
    assert(eval() == expect, mode.label) // cold: compiles any operator
    val before = threads.getCurrentThreadAllocatedBytes
    val got = eval()
    val mb = (threads.getCurrentThreadAllocatedBytes - before) / 1e6
    assert(got == expect, mode.label)
    mb
  }

  test("fused sum(X^2) over compressed executes on the dictionary") {
    val expect = big.values.map(v => v * v).sum
    for (policy <- Seq(CostBased, FuseAll, FuseNoRedundancy)) {
      val mb = warmAllocMB(GenMode(policy), expect)(x => (x ^ 2.0).sum)
      assert(mb < 1.0, s"$policy: a warm sum(X^2) allocated $mb MB")
    }
  }
  test("fused sum(X * 2.0) over compressed executes on the dictionary") {
    // the literal is a 1x1 side input of the generated operator
    val expect = big.values.map(_ * 2.0).sum
    warmAllocMB(BaseMode, expect)(x => (x * 2.0).sum) // Base agrees
    for (policy <- Seq(CostBased, FuseAll, FuseNoRedundancy)) {
      val mb = warmAllocMB(GenMode(policy), expect)(x => (x * 2.0).sum)
      assert(mb < 1.0, s"$policy: a warm sum(X * 2.0) allocated $mb MB")
    }
  }
  test("basic sum(X) over compressed reads the dictionaries") {
    val mb = warmAllocMB(BaseMode, big.values.sum)(_.sum)
    assert(mb < 1.0, s"a warm Base sum(X) allocated $mb MB")
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
  /** `expr(X, v)` over the compressed leaf X equals Base over the dense
    * block, in every mode; v is a dense 8 x 1 vector. */
  private def agreesWithDense(expr: (MX, MX) => MX): Unit = {
    val v = MatrixBlock.rand(8, 1, 1.0, 6, min = -1, max = 1)
    def run(mode: ExecMode, x: MatrixBlock): MatrixBlock = {
      val ctx = new ExecContext(mode)
      ctx.eval(Seq(expr(ctx.bindLocal("X", x), ctx.bindLocal("v", v)))).head.toLocal
    }
    val expect = run(BaseMode, base)
    for (mode <- TestLA.allModes) {
      val got = run(mode, comp)
      assert(got.rows == expect.rows && got.cols == expect.cols, s"${mode.label}: ${got.rows}x${got.cols}")
      assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9, mode.label)
    }
  }
  test("sum(X) over a compressed leaf equals the dense result in all modes") {
    agreesWithDense((x, _) => x.sum)
  }
  test("colSums(X) over a compressed leaf equals the dense result in all modes") {
    agreesWithDense((x, _) => x.colSums)
  }
  test("t(X) over a compressed leaf equals the dense result in all modes") {
    agreesWithDense((x, _) => x.t)
  }
  test("X %*% v over a compressed leaf equals the dense result in all modes") {
    agreesWithDense(_ %*% _)
  }
  test("rowSums(X) over a compressed leaf equals the dense result in all modes") {
    agreesWithDense((x, _) => x.rowSums)
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
