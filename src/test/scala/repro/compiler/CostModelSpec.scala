package repro.compiler

import repro.SparkSpec
import repro.core._
import repro.runtime._

/** Analytical cost model (paper Eq. 4): size/flop estimates, fusion
  * benefits, sparsity scaling, distributed penalties, and constraints. */
class CostModelSpec extends SparkSpec {

  private val cfg = CostConfig()
  private def ctx = new ExecContext(GenMode(CostBased), cfg)
  private def dense(r: Int, c: Int, s: Long = 1) = MatrixBlock.rand(r, c, 1.0, s, min = -1, max = 1)

  test("sizeBytes: dense vs sparse representation") {
    val d = new LeafHop("d", 1000, 100, 1.0)
    val s = new LeafHop("s", 1000, 100, 0.01)
    assert(CostModel.sizeBytes(d) == 1000 * 100 * 8.0)
    assert(CostModel.sizeBytes(s) == 1000 * 12.0) // nnz * 12
  }
  test("flops: matmult scales with dims and lhs sparsity") {
    val mmD = new MatMulHop(new LeafHop("a", 100, 50, 1.0), new LeafHop("b", 50, 20, 1.0))
    val mmS = new MatMulHop(new LeafHop("a", 100, 50, 0.1), new LeafHop("b", 50, 20, 1.0))
    assert(CostModel.flops(mmD) == 2.0 * 100 * 50 * 20)
    assert(math.abs(CostModel.flops(mmS) - 0.1 * 2.0 * 100 * 50 * 20) < 1e-6)
  }

  test("fused plan costs less than base plan (fewer intermediates)") {
    val c = ctx
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(1000, 100))
    val y = c.bindLocal("Y", dense(1000, 100, 2))
    val roots = Seq(((x * y) * 2.0).sum.hop)
    val memo = Explorer.explore(roots)
    val fused = Selector.select(roots, memo, CostBased, cfg)
    val base = ExecPlan(Hop.collect(roots).collect {
      case h if !h.isInstanceOf[LeafHop] && !h.isInstanceOf[LitHop] => PBasic(h)
    })
    assert(CostModel.planCost(fused, cfg) < CostModel.planCost(base, cfg))
  }

  test("sparsity-exploiting Outer plan costs less than dense coverage") {
    val c = ctx
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", MatrixBlock.rand(2000, 2000, 0.01, 3))
    val u = c.bindLocal("U", dense(2000, 10, 4))
    val v = c.bindLocal("V", dense(2000, 10, 5))
    val roots = Seq((x * (u %*% v.t)).sum.hop)
    val memo = Explorer.explore(roots)
    val gen = Selector.select(roots, memo.copyTable(), CostBased, cfg)
    val outer = gen.ops.collect { case PFused(c) if c.tpe == OuterTpl => c }
    assert(outer.nonEmpty)
    val driver = outer.head.inputs.head
    assert(outer.head.sparseSafe && driver.sparsity < 0.05, s"driver $driver")
    val sparseCost = CostModel.opCost(PFused(outer.head), cfg)
    val denseCost = CostModel.opCost(PFused(outer.head.copy(sparseSafe = false)), cfg)
    assert(sparseCost < denseCost, s"$sparseCost !< $denseCost")
  }

  test("distributed side inputs are penalized (broadcast cost)") {
    val smallCfg = cfg.copy(localMemBudget = 1L << 16)
    // X 10^5 x 100 = 80 MB > 64 KB budget -> distributed
    val x = new LeafHop("X", 100000, 100, 1.0)
    val v = new LeafHop("v", 100, 1, 1.0)
    val mm = new MatMulHop(x, v)
    val distCost = CostModel.opCost(PBasic(mm), smallCfg)
    val localCost = CostModel.opCost(PBasic(mm), cfg)
    assert(distCost > localCost, s"$distCost !> $localCost (latency + broadcast penalty)")
  }

  test("constraint Z: infinite cost for wide distributed Row operators") {
    val smallCfg = cfg.copy(localMemBudget = 1L << 16, blockCols = 64)
    val x = new LeafHop("X", 100000, 300, 1.0, forceDistributed = true) // wide + distributed
    val v = new LeafHop("v", 300, 1, 1.0)
    val mm = new MatMulHop(x, v)
    val cplan = CPlan.construct(mm, RowTpl, Set(mm.id), IndexedSeq(x, v)).get
    assert(CostModel.opCost(PFused(cplan), smallCfg).isPosInfinity)
  }

  /** The Row operator of `v * (f(X) %*% W)` as extraction binds it:
    * extraction finds v (n x k) first, but the skeleton iterates rows of
    * the wider X. */
  private def rowOverX(x: Hop, v: Hop, w: Hop, f: Hop => Hop = identity): CPlan = {
    val roots = Seq(new BinaryHop(Ops.Mult, v, new MatMulHop(f(x), w)))
    PlanExtractor.extract(roots, Explorer.explore(roots), Set.empty).ops match {
      case Seq(PFused(c)) if c.tpe == RowTpl =>
        assert(c.inputs.map(_.id).toSet == Set(v.id, x.id, w.id), c.inputs)
        assert(c.inputs.head eq x, s"bound main ${c.inputs.head}, expected $x")
        c
      case ops => fail(s"expected one Row operator, got $ops")
    }
  }

  test("constraint Z reads the bound main input of a Row operator, not the first one found") {
    val smallCfg = cfg.copy(localMemBudget = 1L << 16, blockCols = 64)
    val x = new LeafHop("X", 100000, 300, 1.0, forceDistributed = true) // wide + distributed
    val v = new LeafHop("v", 100000, 4, 1.0)
    val w = new LeafHop("W", 300, 4, 1.0)
    assert(CostModel.opCost(PFused(rowOverX(x, v, w)), smallCfg).isPosInfinity)
  }

  /** A local Row operator's compute term, less its chain's flops, for
    * `v * (f(X) %*% W)` with v 1000x4 and W 50x4. */
  private def rowRead(x: Hop, f: Hop => Hop): Double = {
    // compute-bound: reads and writes are free, one FLOP per second
    val slowCfg = cfg.copy(readBandwidth = 1e30, writeBandwidth = 1e30, computeBandwidth = 1.0)
    val cplan = rowOverX(x, new LeafHop("v", 1000, 4, 1.0), new LeafHop("W", 50, 4, 1.0), f)
    val chain = CPlan.coveredHops(cplan.root, cplan.covered).map(CostModel.flops).sum
    CostModel.opCost(PFused(cplan), slowCfg) - chain
  }
  private def near(got: Double, expected: Double) = assert(math.abs(got - expected) <= 1e-6, s"$got != $expected")

  test("a local Row operator's compute term reads a dense main in place and a sparse main by its non-zeros") {
    val dense = new LeafHop("X", 1000, 50, 1.0)
    val sparse = new LeafHop("X", 1000, 50, 0.1)
    // X %*% W reads the row in place: no per-cell term, the non-zeros if sparse
    near(rowRead(dense, identity), 0.0)
    near(rowRead(sparse, identity), sparse.nnz.toDouble)
    // abs(X) over a dense row reads it in place too
    near(rowRead(dense, new UnaryHop(Ops.Abs, _)), 0.0)
  }

  test("a local Row operator's compute term densifies its bound main input") {
    // abs(X) scatters each sparse row into a dense one: its non-zeros and its cells
    val sparse = new LeafHop("X", 1000, 50, 0.1)
    near(rowRead(sparse, new UnaryHop(Ops.Abs, _)), sparse.nnz.toDouble + sparse.numCells)
  }

  test("lower bound never exceeds the actual optimal cost") {
    val c = ctx
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(2000, 50))
    val p = c.bindLocal("P", dense(2000, 4, 6))
    val v = c.bindLocal("V", dense(50, 4, 7))
    val q = p * (x %*% v)
    val roots = Seq((x.t %*% (q - p * q.rowSums)).hop)
    val memo = Explorer.explore(roots)
    val parts = Partitions.analyze(roots, memo)
    for (part <- parts) {
      val (_, bruteCost) = Selector.bruteForcePartition(roots, memo, part, cfg)
      val lb = CostModel.lowerBound(part, memo, cfg)(Set.empty)
      assert(lb <= bruteCost + 1e-12, s"lb $lb > optimal $bruteCost")
    }
  }

  test("multi-aggregate reads shared inputs once") {
    val c = ctx
    implicit val cc: ExecContext = c
    val x = c.bindLocal("X", dense(5000, 100))
    val y = c.bindLocal("Y", dense(5000, 100, 8))
    val roots = Seq((x ^ 2.0).sum.hop, (x * y).sum.hop)
    val memo = Explorer.explore(roots)
    val plan = Selector.select(roots, memo, CostBased, cfg)
    val magg = plan.ops.collect { case PFused(c) if c.roots.size > 1 => c }
    assert(magg.nonEmpty, plan.toString)
    // cost of the merged op < two separate fused aggregates (X read once)
    val merged = CostModel.opCost(PFused(magg.head), cfg)
    val separate = magg.head.roots.map { r =>
      val covered = CPlan.coveredHops(r, magg.head.covered)
      val inputs = magg.head.inputs.filter(in => covered.exists(_.inputs.contains(in)))
      CostModel.opCost(PFused(CPlan.construct(r, MAggTpl, covered.map(_.id).toSet, inputs).get), cfg)
    }.sum
    assert(merged < separate)
  }
}
