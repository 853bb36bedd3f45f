package repro.compiler

import scala.collection.immutable.BitSet
import repro.SparkSpec
import repro.core._
import repro.runtime._

/** Candidate selection (paper §4): partitions, interesting points,
  * MPSkipEnum optimality vs exhaustive enumeration, pruning effectiveness,
  * and heuristic behavior. */
class SelectorSpec extends SparkSpec {

  private def ctx = new ExecContext(GenMode(CostBased))
  private def dense(r: Int, c: Int, s: Long = 1) = MatrixBlock.rand(r, c, 1.0, s, min = -1, max = 1)
  private def sparse(r: Int, c: Int, s: Long = 2) = MatrixBlock.rand(r, c, 0.05, s, min = -1, max = 1)

  /** Eq. 2-style DAG with a materialization point (Q consumed twice). */
  private def eq2DAG(c: ExecContext): Seq[Hop] = {
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(2000, 8))
    val p = c.bindLocal("P", dense(2000, 4, 3))
    val v = c.bindLocal("V", dense(8, 4, 4))
    val q = p * (x %*% v)
    Seq((x.t %*% (q - p * q.rowSums)).hop)
  }

  /** Three aggregates over one shared multi-consumer chain. */
  private def cseDAG(c: ExecContext): Seq[Hop] = {
    implicit val cc: ExecContext = c
    val shared = (c.bindLocal("X", dense(3000, 10)) * c.bindLocal("Y", dense(3000, 10, 7))).exp
    Seq(shared.rowSums.hop, (shared * 2.0).colSums.hop, shared.sum.hop)
  }

  test("partition analysis: Eq2 forms one partition with interesting points") {
    val c = ctx
    val roots = eq2DAG(c)
    val memo = Explorer.explore(roots)
    val parts = Partitions.analyze(roots, memo)
    assert(parts.size == 1, parts.toString)
    val p = parts.head
    assert(p.roots.nonEmpty && p.inputs.nonEmpty)
    assert(p.matPoints.nonEmpty, "Q has two consumers -> materialization point")
    assert(p.points.nonEmpty)
  }

  test("independent partitions are separated (colSums barrier)") {
    val c = ctx
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(100, 10))
    val y = c.bindLocal("Y", dense(100, 10, 5))
    // colSums closes all templates: chain below and chain above are
    // separate partitions (adjacent, like Fig. 6 partitions 2 and 3)
    val below = (x * y).colSums
    val above = (below * 2.0) + 1.0
    val memo = Explorer.explore(Seq(above.hop))
    val parts = Partitions.analyze(Seq(above.hop), memo)
    assert(parts.size == 2, s"expected 2 partitions:\n$memo\n$parts")
  }

  test("MPSkipEnum matches exhaustive enumeration on Eq2") {
    val c = ctx
    val roots = eq2DAG(c)
    val memo = Explorer.explore(roots)
    val parts = Partitions.analyze(roots, memo)
    for (p <- parts if p.points.nonEmpty) {
      val best = Selector.enumeratePartition(roots, memo, p, c.cfg)
      val (bruteEdges, bruteCost) = Selector.bruteForcePartition(roots, memo, p, c.cfg)
      val enumPlan = PlanExtractor.extract(roots, memo, best)
      val enumCost = CostModel.planCost(enumPlan, c.cfg, Some(p.nodes))
      assert(math.abs(enumCost - bruteCost) <= 1e-9 * math.max(1.0, bruteCost),
        s"enum cost $enumCost != brute $bruteCost (edges $best vs $bruteEdges)")
    }
  }

  test("MPSkipEnum matches exhaustive enumeration on a CSE-heavy DAG") {
    val c = ctx
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(3000, 10))
    val y = c.bindLocal("Y", dense(3000, 10, 7))
    val shared = (x * y).exp
    val r1 = shared.rowSums
    val r2 = (shared * 2.0).colSums
    val r3 = shared.sum
    val roots = Seq(r1.hop, r2.hop, r3.hop)
    val memo = Explorer.explore(roots)
    val parts = Partitions.analyze(roots, memo)
    for (p <- parts if p.points.nonEmpty) {
      val best = Selector.enumeratePartition(roots, memo, p, c.cfg)
      val (_, bruteCost) = Selector.bruteForcePartition(roots, memo, p, c.cfg)
      val enumCost = CostModel.planCost(PlanExtractor.extract(roots, memo, best), c.cfg, Some(p.nodes))
      assert(math.abs(enumCost - bruteCost) <= 1e-9 * math.max(1.0, bruteCost))
    }
  }

  test("cost-based pruning skips plans") {
    val c = ctx
    CodegenStats.reset()
    val roots = eq2DAG(c)
    val memo = Explorer.explore(roots)
    val parts = Partitions.analyze(roots, memo)
    parts.foreach(p => Selector.enumeratePartition(roots, memo, p, c.cfg))
    val evaluated = CodegenStats.plansEvaluated.get()
    val total = parts.map(p => 1L << math.min(p.points.size, 20)).sum
    assert(evaluated <= total, s"evaluated $evaluated of $total")
  }

  test("fuse-all on ALS update covers the outer chain from above (redundant/dense)") {
    val c = new ExecContext(GenMode(FuseAll))
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", sparse(3000, 2000))
    val u = c.bindLocal("U", dense(3000, 10, 8))
    val v = c.bindLocal("V", dense(2000, 10, 9))
    val r = c.bindLocal("r", dense(3000, 1, 10))
    val o = ((x.neq0 * (u %*% v.t)) %*% v) + u * 1e-6 * r
    val faPlan = c.compilePlan(Seq(o.hop))
    // FA greedily fuses through the template switch: no Outer operator
    val faOuter = faPlan.ops.collect { case PFused(s) if s.tpe == OuterTpl => s }
    assert(faOuter.isEmpty, s"fuse-all should destroy the Outer template:\n$faPlan")
  }

  test("cost-based selection preserves the sparse-safe Outer template (template switch)") {
    val c = ctx
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", sparse(3000, 2000))
    val u = c.bindLocal("U", dense(3000, 10, 8))
    val v = c.bindLocal("V", dense(2000, 10, 9))
    val r = c.bindLocal("r", dense(3000, 1, 10))
    val o = ((x.neq0 * (u %*% v.t)) %*% v) + u * 1e-6 * r
    val genPlan = c.compilePlan(Seq(o.hop))
    val genOuter = genPlan.ops.collect { case PFused(s) if s.tpe == OuterTpl => s }
    assert(genOuter.nonEmpty, s"Gen should keep the Outer template:\n$genPlan")
  }

  /** One mini-batch DAG of `AutoEncoder.run` as the benchmark runs it
    * (1024 x 128 dense X, 64-2-64, batch 512): biases are all zero in the
    * first batch and dense after it. */
  private def autoEncoderDAG(c: ExecContext, zeroBiases: Boolean = true): Seq[Hop] = {
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(1024, 128))
    def bias(k: Int) = if (zeroBiases) MatrixBlock.zeros(1, k) else dense(1, k, 13)
    val params = Seq(dense(128, 64, 5), bias(64), dense(64, 2, 6), bias(2),
      dense(2, 64, 7), bias(64), dense(64, 128, 8), bias(128)).zipWithIndex
      .map { case (b, i) => c.bindLocal(s"p$i", b) }
    repro.algos.AutoEncoder.batchDag(x.sliceRows(0, 512), params).map(_.hop)
  }

  test("Gen plan cost is never worse than the heuristics'") {
    // AutoEncoder has a partition of 24 points, above the point cap
    for ((name, dag) <- Seq[(String, ExecContext => Seq[Hop])](
           "Eq2" -> eq2DAG, "AutoEncoder" -> (autoEncoderDAG(_)),
           "AutoEncoder, dense biases" -> (autoEncoderDAG(_, zeroBiases = false)))) {
      val c = ctx
      val roots = dag(c)
      val memo = Explorer.explore(roots)
      if (name.startsWith("AutoEncoder"))
        assert(Partitions.analyze(roots, memo).exists(_.points.size > Selector.MaxPoints), name)
      val gen = Selector.select(roots, memo.copyTable(), CostBased, c.cfg)
      val fa = Selector.select(roots, memo.copyTable(), FuseAll, c.cfg)
      val fnr = Selector.select(roots, memo.copyTable(), FuseNoRedundancy, c.cfg)
      val (cg, cfa, cfnr) = (CostModel.planCost(gen, c.cfg), CostModel.planCost(fa, c.cfg),
        CostModel.planCost(fnr, c.cfg))
      assert(cg <= cfa + 1e-9, s"$name: Gen $cg > FA $cfa")
      assert(cg <= cfnr + 1e-9, s"$name: Gen $cg > FNR $cfnr")
    }
  }

  test("partition-local plan cost equals the cost of the extracted plan") {
    def check(roots: Seq[Hop], memo: MemoTable, p: PlanPartition, mat: BitSet): Unit = {
      val local = new PlanExtractor.PartitionCost(roots, memo, p, CostConfig())
      val plan = PlanExtractor.extract(roots, memo, mat.unsorted.map(p.points(_).edge))
      val expect = CostModel.planCost(plan, CostConfig(), Some(p.nodes))
      val got = local(mat)
      assert(math.abs(got - expect) <= 1e-12 * expect, s"$mat: $got != $expect")
    }
    // sum(X^2) lies outside the shared chain's partition, and merges with
    // its sum into one multi-aggregate
    def cseMergeDAG(c: ExecContext): Seq[Hop] = {
      implicit val cc: ExecContext = c
      val x = c.bindLocal("X", dense(3000, 10))
      val shared = (x * c.bindLocal("Y", dense(3000, 10, 7))).exp
      Seq(shared.rowSums.hop, shared.sum.hop, (x ^ 2.0).sum.hop)
    }
    for (dag <- Seq[ExecContext => Seq[Hop]](eq2DAG, cseDAG, cseMergeDAG)) {
      val roots = dag(ctx)
      val memo = Explorer.explore(roots)
      for (p <- Partitions.analyze(roots, memo); j <- 0L until (1L << p.points.size))
        check(roots, memo, p, BitSet.fromBitMask(Array(j)))
    }
    val merged = cseMergeDAG(ctx)
    assert(PlanExtractor.extract(merged, Explorer.explore(merged), Set.empty).ops.exists {
      case PFused(c) => c.roots.size == 2
      case _         => false
    })
    val roots = autoEncoderDAG(ctx)
    val memo = Explorer.explore(roots)
    val p = Partitions.analyze(roots, memo).maxBy(_.points.size)
    assert(p.points.size == 24, p.points.toString)
    val rnd = new scala.util.Random(11)
    for (_ <- 0 until 2000)
      check(roots, memo, p, BitSet.fromSpecific(p.points.indices.filter(_ => rnd.nextBoolean())))
  }

  test("fuse-no-redundancy materializes multi-consumer intermediates") {
    val c = new ExecContext(GenMode(FuseNoRedundancy))
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(500, 10))
    val y = c.bindLocal("Y", dense(500, 10, 11))
    val shared = (x * y).exp
    val plan = c.compilePlan(Seq(shared.rowSums.hop, (shared * 2.0).sum.hop))
    // the shared chain must be produced exactly once (its own operator)
    val producers = plan.ops.filter(_.outputs.exists(_.id == shared.hop.id))
    assert(producers.size == 1, plan.toString)
  }

  test("fuse-all recomputes multi-consumer intermediates (redundant compute)") {
    val c = new ExecContext(GenMode(FuseAll))
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(500, 10))
    val y = c.bindLocal("Y", dense(500, 10, 11))
    val shared = (x * y).exp
    val plan = c.compilePlan(Seq(shared.rowSums.hop, (shared * 2.0).sum.hop))
    // both consumers cover the shared chain inside their fused operators
    val covering = plan.ops.count {
      case PFused(c) => c.covered.contains(shared.hop.id)
      case _         => false
    }
    assert(covering >= 2, plan.toString)
  }

  test("createAssignment linearizes from all-false (fuse-all) upward") {
    assert(Selector.createAssignment(3, 0).toSeq == Seq(false, false, false))
    assert(Selector.createAssignment(3, 1).toSeq == Seq(false, false, true))
    assert(Selector.createAssignment(3, 4).toSeq == Seq(true, false, false))
    assert(Selector.createAssignment(3, 7).toSeq == Seq(true, true, true))
  }

  test("distributed Row constraint: wide distributed inputs are prefiltered") {
    val cfg = CostConfig(localMemBudget = 1L << 20, blockCols = 64)
    val c = new ExecContext(GenMode(CostBased), cfg)
    implicit val cc: ExecContext = c
    // a distributed leaf 2000 x 300 (4.8 MB > 1 MB budget); 300 > 64 cols
    val x = new MX(new LeafHop("X", 2000, 300, 1.0, forceDistributed = true))
    val v = c.bindLocal("v", dense(300, 1, 12))
    val roots = Seq((x %*% v).hop)
    val memo = Explorer.explore(roots)
    Selector.select(roots, memo, CostBased, cfg)
    assert(!memo.entries(roots.head.id).exists(_.tpe == RowTpl),
      "Row entries over wide distributed inputs must be removed")
  }

  test("selection cache keys on the cost configuration and leaf placement") {
    // MLogreg-style DAG: p = exp(X %*% w); q = p / rowSums(p)
    def dag(xDistributed: Boolean): Seq[Hop] = {
      implicit val cc: ExecContext = ctx
      val x = new MX(new LeafHop("X", 2000, 20, 1.0, forceDistributed = xDistributed))
      val w = new MX(new LeafHop("w", 20, 4, 1.0))
      val y = new MX(new LeafHop("Y", 2000, 4, 1.0))
      val p = (x %*% w).exp
      val q = p / p.rowSums
      Seq((x.t %*% (q - y)).hop, (q * y).sum.hop, (q ^ 2.0).colSums.hop)
    }
    val settings = Seq(
      ("default", CostConfig(), false),
      ("1 KB local budget", CostConfig(localMemBudget = 1024), false),
      ("slow compute", CostConfig(computeBandwidth = 1e6), false),
      ("slow memory", CostConfig(readBandwidth = 1e6, writeBandwidth = 1e6), false),
      ("distributed X", CostConfig(), true),
    ).map { case (label, cfg, xDist) => (label, cfg, dag(xDist)) }
    def select(cfg: CostConfig, roots: Seq[Hop]): ExecPlan =
      Selector.select(roots, Explorer.explore(roots), CostBased, cfg)
    val stale = for {
      (labelA, cfgA, rootsA) <- settings
      (labelB, cfgB, rootsB) <- settings if labelB != labelA
    } yield {
      Selector.clearSelectionCache()
      val fresh = select(cfgB, rootsB)
      Selector.clearSelectionCache()
      select(cfgA, rootsA)
      Option.when(select(cfgB, rootsB) != fresh)(s"$labelA, then $labelB")
    }
    Selector.clearSelectionCache()
    assert(stale.flatten.isEmpty, "reused a stale selection: " + stale.flatten.mkString("; "))
  }
}
