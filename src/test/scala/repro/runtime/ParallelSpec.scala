package repro.runtime

import org.apache.spark.sql.Encoders
import repro.{SparkSpec, TestLA}
import repro.compiler._
import repro.core._
import repro.runtime.Ops._

/** Multi-threaded kernels and skeletons: every input here is above
  * [[RowRanges.MinWork]], so each runs over several row ranges on a
  * multi-core machine, and gives the single-threaded reference's result. */
class ParallelSpec extends SparkSpec {

  private val nproc = Runtime.getRuntime.availableProcessors

  /** The kernel's rows split into as many ranges as there are cores. */
  private def assertSplits(n: Int, work: Long): Unit =
    assert(RowRanges.split(n, work).length - 1 == math.min(n, nproc), s"$n rows, work $work")

  private def rand(rows: Int, cols: Int, sparsity: Double, seed: Long): MatrixBlock = {
    val b = MatrixBlock.rand(rows, cols, sparsity, seed, min = -1, max = 1)
    if (sparsity < 1.0) b.toSparse else b.toDense
  }

  /** a %*% b by the textbook triple loop. */
  private def naiveMatmul(a: MatrixBlock, b: MatrixBlock): DenseBlock = {
    val (av, bv) = (a.toDense.values, b.toDense.values)
    MatrixBlock.tabulate(a.rows, b.cols) { (i, j) =>
      var s = 0.0
      var k = 0
      while (k < a.cols) { s += av(i * a.cols + k) * bv(k * b.cols + j); k += 1 }
      s
    }
  }

  private def assertClose(got: MatrixBlock, expect: MatrixBlock, what: String): Unit = {
    assert(got.rows == expect.rows && got.cols == expect.cols, s"$what: ${got.rows}x${got.cols}")
    val d = MatrixBlock.maxAbsDiff(got, expect)
    assert(d <= 1e-9, s"$what differs from the reference by $d")
  }

  test("split: at most one range per core over [0, n); one range below the threshold or for one row") {
    for (n <- Seq(1, 2, 3, 7, 1000)) {
      val b = RowRanges.split(n, Long.MaxValue)
      assert(b.head == 0 && b.last == n && b.sliding(2).forall(r => r(0) < r(1)), b.mkString(","))
      assert(b.length - 1 == math.min(n, nproc))
    }
    assert(RowRanges.split(1000, RowRanges.MinWork - 1).toSeq == Seq(0, 1000))
    assert(RowRanges.split(1, Long.MaxValue).toSeq == Seq(0, 1))
  }

  test("a kernel called inside a Spark task gets one range") {
    val inTask = spark.range(1).map(_ => RowRanges.split(1000, Long.MaxValue).length - 1)(Encoders.scalaInt).collect()
    assert(inTask.toSeq == Seq(1))
    // the same split on the driver uses every core
    assertSplits(1000, Long.MaxValue)
    // and a matmult in a task equals the one on the driver
    val (a, b) = (rand(1000, 100, 1.0, 1), rand(100, 30, 1.0, 2))
    val inTaskMM = spark.range(1).map(_ => LocalOps.matmul(a, b).values)(Encoders.javaSerialization[Array[Double]]).head()
    assertClose(new DenseBlock(1000, 30, inTaskMM), LocalOps.matmul(a, b), "matmul in a task")
  }

  test("matmul over dense x dense, sparse x dense and dense x sparse equals the triple loop") {
    val cases = Seq(
      ("dense x dense", rand(300, 100, 1.0, 3), rand(100, 80, 1.0, 4)),
      ("sparse x dense", rand(2000, 200, 0.1, 5), rand(200, 80, 1.0, 6)),
      ("dense x sparse", rand(1000, 200, 1.0, 7), rand(200, 80, 0.2, 8)))
    for ((name, a, b) <- cases) {
      val work = if (a.isSparseFormat) a.nnz * b.cols else if (b.isSparseFormat) a.rows * b.nnz else a.numCells * b.cols
      assertSplits(a.rows, work)
      assertClose(LocalOps.matmul(a, b), naiveMatmul(a, b), name)
    }
  }

  private def assertTransposeLeft(name: String, y: MatrixBlock, z: MatrixBlock): Unit = {
    assertSplits(y.rows, (if (y.isSparseFormat) y.nnz else y.numCells) * z.cols)
    assertClose(LocalOps.matmulTransposeLeft(y, z), naiveMatmul(LocalOps.transpose(y), z), name)
  }
  test("matmulTransposeLeft over dense x dense, sparse x dense and dense x sparse equals the triple loop") {
    assertTransposeLeft("dense x dense", rand(3000, 50, 1.0, 9), rand(3000, 20, 1.0, 10))
    assertTransposeLeft("sparse x dense", rand(3000, 200, 0.1, 11), rand(3000, 40, 1.0, 12))
    assertTransposeLeft("dense x sparse", rand(3000, 50, 1.0, 13), rand(3000, 40, 0.2, 14))
  }
  // the distributed t(Y) %*% Z hands it sparse blocks of both operands
  test("matmulTransposeLeft over sparse x sparse equals the triple loop") {
    assertTransposeLeft("sparse x sparse", rand(3000, 200, 0.1, 15), rand(3000, 40, 0.2, 16))
  }

  // ---- skeletons: every variant equals Base in all five modes ------------

  private val n = 4000
  private val m = 100
  private val mains: Seq[(String, MatrixBlock)] =
    Seq("dense" -> rand(n, m, 1.0, 20), "sparse" -> rand(n, m, 0.1, 21))
  private val sides: Map[String, MatrixBlock] = Map(
    "Z" -> rand(n, m, 1.0, 22),
    "W" -> rand(m, 8, 1.0, 23),
    "v" -> rand(m, 1, 1.0, 24),
    "y" -> rand(n, 1, 1.0, 25))

  private def colMaxs(x: MX)(implicit ctx: ExecContext): MX = new MX(new AggHop(MaxAgg, ColDir, x.hop))

  /** Per operator kind: the DAG over X and the side inputs, and the fused
    * operator that Gen's plan must contain over dense and sparse X. */
  private val skeletonDags: Seq[(String, (MX, String => MX, ExecContext) => Seq[MX], CPlan => Boolean)] = Seq(
    ("Row NoAgg", (x, in, _) => Seq((x.abs %*% in("W")) + (x %*% in("W"))), _.variant == RowNoAgg),
    ("Row RowAgg", (x, in, _) => Seq(x.rowSums + (x * in("y")).rowMaxs), _.variant == RowRowAgg),
    ("Row ColAgg", (x, in, _) => Seq((x * in("y")).colSums), _.variant == RowColAgg),
    ("Row FullAgg", (x, in, _) => Seq(((x %*% in("W")) * (x.abs %*% in("W"))).sum), _.variant == RowFullAgg),
    ("Row ColAggT", (x, in, _) => Seq(x.t %*% (in("y") * (x %*% in("v")))), _.variant == RowColAggT),
    ("Cell ColAgg", (x, _, c) => Seq(colMaxs(x * 2.0)(c)), _.variant == CellColAgg(MaxAgg)),
    ("MAgg", (x, in, _) => Seq((x ^ 2.0).sum, (x * in("Z")).sum, (in("Z") ^ 2.0).sum),
      c => c.tpe == MAggTpl && c.roots.size > 1))

  for ((name, dag, isOp) <- skeletonDags; (format, x) <- mains)
    test(s"$name over $format X, run over row ranges, equals Base in all five modes") {
      assertSplits(n, Spoof.work(x, x.isSparseFormat))
      def build(ctx: ExecContext): Seq[MX] =
        dag(ctx.bindLocal("X", x), s => ctx.bindLocal(s, sides(s)), ctx)
      val ctx = new ExecContext(GenMode(CostBased))
      val plan = ctx.compilePlan(build(ctx).map(_.hop))
      assert(plan.ops.exists { case PFused(c) => isOp(c); case _ => false }, plan.toString)
      TestLA.modesAgree(tol = 1e-8)(build)
    }

  /** Outer operators bind only with a sparse driver; over dense X the
    * modes still agree. */
  private val outerDags: Seq[(OuterVariant, (MX, MX, MX) => MX)] = Seq(
    OuterFullAgg -> ((x, u, v) => (x.abs * ((u %*% v.t) + 1.5).log).sum),
    OuterRightMM -> ((x, u, v) => (x.neq0 * (u %*% v.t)) %*% v),
    OuterLeftMM  -> ((x, u, v) => (x.neq0 * (u %*% v.t)).t %*% u),
    OuterNoAgg   -> ((x, u, v) => x * (u %*% v.t)))

  private val outerX: Seq[(String, MatrixBlock)] =
    Seq("sparse" -> rand(1200, 800, 0.05, 30), "dense" -> rand(1200, 800, 1.0, 30))
  /** Non-negative factors, so that the log of FullAgg is defined. */
  private val (outerU, outerV) =
    (MatrixBlock.rand(1200, 5, 1.0, 31, min = 0, max = 1), MatrixBlock.rand(800, 5, 1.0, 32, min = 0, max = 1))

  for ((variant, dag) <- outerDags; (format, x) <- outerX)
    test(s"Outer $variant over $format X, run over row ranges, equals Base in all five modes") {
      assertSplits(x.rows, Spoof.work(x, x.isSparseFormat))
      def build(ctx: ExecContext): Seq[MX] =
        Seq(dag(ctx.bindLocal("X", x), ctx.bindLocal("U", outerU), ctx.bindLocal("V", outerV)))
      if (format == "sparse") {
        val ctx = new ExecContext(GenMode(CostBased))
        val plan = ctx.compilePlan(build(ctx).map(_.hop))
        assert(plan.ops.exists { case PFused(c) => c.variant == variant; case _ => false }, plan.toString)
      }
      // FullAgg over dense X adds ~10^6 terms to a total near 5e5, in
      // another order per mode: 1e-6 is ~1e-12 of it
      TestLA.modesAgree(tol = 1e-6)(build)
    }

  test("two evaluations of the same DAG give identical bits") {
    val x = mains(1)._2
    for (mode <- Seq(BaseMode, GenMode(CostBased))) {
      def once(): Seq[Array[Double]] = {
        val ctx = new ExecContext(mode)
        implicit val c: ExecContext = ctx
        val xm = ctx.bindLocal("X", x)
        val y = ctx.bindLocal("y", sides("y"))
        val z = ctx.bindLocal("Z", sides("Z"))
        ctx.eval(Seq(xm.t %*% (y * (xm %*% ctx.bindLocal("v", sides("v")))), (xm * z).sum, (xm ^ 2.0).sum,
          xm.t %*% z)).map(_.toLocal.toDense.values)
      }
      val (a, b) = (once(), once())
      a.zip(b).zipWithIndex.foreach { case ((p, q), k) =>
        assert(java.util.Arrays.equals(p, q), s"${mode.label} output $k differs between evaluations")
      }
    }
  }
}
