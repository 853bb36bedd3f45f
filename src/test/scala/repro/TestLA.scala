package repro

import repro.compiler._
import repro.core._
import repro.runtime._

/** Shared helpers for cross-mode result-equivalence tests. */
object TestLA {

  val allModes: Seq[ExecMode] =
    Seq(BaseMode, FusedMode, GenMode(CostBased), GenMode(FuseAll), GenMode(FuseNoRedundancy))

  /** Build the same multi-root DAG under every execution mode and assert
    * all modes produce the Base results (element-wise, within tol). */
  def modesAgree(modes: Seq[ExecMode] = allModes, tol: Double = 1e-9)
                (build: ExecContext => Seq[MX]): Unit = {
    val results: Seq[(String, Seq[MatrixBlock])] = modes.map { mode =>
      val ctx = new ExecContext(mode)
      val roots = build(ctx)
      mode.label -> ctx.eval(roots).map(_.toLocal)
    }
    val (refLabel, ref) = results.head
    for ((label, got) <- results.tail) {
      assert(got.size == ref.size, s"$label produced ${got.size} outputs, $refLabel ${ref.size}")
      got.zip(ref).zipWithIndex.foreach { case ((g, r), k) =>
        assert(g.rows == r.rows && g.cols == r.cols,
          s"$label output $k dims ${g.rows}x${g.cols} != ${r.rows}x${r.cols}")
        val d = MatrixBlock.maxAbsDiff(g, r)
        assert(d <= tol, s"$label output $k differs from $refLabel by $d")
      }
    }
  }

  /** The plan of the DAG under Gen, Gen-FA and Gen-FNR, with each mode's label. */
  def genPlans(build: ExecContext => Seq[MX]): Seq[(String, ExecPlan)] =
    Seq(CostBased, FuseAll, FuseNoRedundancy).map { policy =>
      val ctx = new ExecContext(GenMode(policy))
      ctx.mode.label -> ctx.compilePlan(build(ctx).map(_.hop))
    }

  /** Assert that the Gen plan for the DAG contains at least `n` fused
    * operators (guards against silently falling back to basic ops). */
  def genFusesAtLeast(n: Int)(build: ExecContext => Seq[MX]): ExecPlan = {
    val ctx = new ExecContext(GenMode(CostBased))
    val roots = build(ctx)
    val plan = ctx.compilePlan(roots.map(_.hop))
    assert(plan.fusedOps.size >= n,
      s"expected >= $n fused operators, got ${plan.fusedOps.size} in\n$plan")
    plan
  }
}
