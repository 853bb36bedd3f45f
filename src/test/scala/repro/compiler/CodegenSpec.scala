package repro.compiler

import repro.{SparkSpec, TestLA}
import repro.core._
import repro.runtime._

/** End-to-end equivalence of all execution modes (Base, Fused, Gen,
  * Gen-FA, Gen-FNR) on the paper's fusion patterns, dense and sparse, plus
  * assertions that Gen actually fuses. */
class CodegenSpec extends SparkSpec {

  private def dense(r: Int, c: Int, seed: Long) = MatrixBlock.rand(r, c, 1.0, seed, min = -1, max = 1)
  private def sparse(r: Int, c: Int, seed: Long) = MatrixBlock.rand(r, c, 0.2, seed, min = -1, max = 1)
  private def pos(r: Int, c: Int, seed: Long) = MatrixBlock.rand(r, c, 1.0, seed, min = 0.1, max = 1)

  // ---- Fig. 1(a): Cell — sum(X * Y * Z) -------------------------------
  test("Fig1a: sum(X*Y*Z) dense") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 30, 1))
      val y = ctx.bindLocal("Y", dense(40, 30, 2))
      val z = ctx.bindLocal("Z", dense(40, 30, 3))
      Seq((x * y * z).sum)
    }
  }
  test("Fig1a: sum(X*Y*Z) sparse driver") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", sparse(40, 30, 4))
      val y = ctx.bindLocal("Y", dense(40, 30, 5))
      val z = ctx.bindLocal("Z", dense(40, 30, 6))
      Seq((x * y * z).sum)
    }
  }
  test("Fig1a Gen plan is a single fused operator") {
    val plan = TestLA.genFusesAtLeast(1) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 30, 1))
      val y = ctx.bindLocal("Y", dense(40, 30, 2))
      val z = ctx.bindLocal("Z", dense(40, 30, 3))
      Seq((x * y * z).sum)
    }
    assert(plan.ops.size == 1, plan.toString)
  }

  // ---- cell chains with broadcasting / scalars -------------------------
  test("cell chain with scalar-left and comparison: out = 1 - Y*(Xw); sv = out>0") {
    TestLA.modesAgree() { implicit ctx =>
      val y = ctx.bindLocal("Y", dense(50, 1, 7))
      val xw = ctx.bindLocal("Xw", dense(50, 1, 8))
      val out = MX.lit(1.0) - y * xw
      Seq(out * (out > 0.0), (out * (out > 0.0) * y).sum)
    }
  }
  test("cell chain with col-vector and row-vector side inputs") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", dense(30, 20, 9))
      val c = ctx.bindLocal("c", dense(30, 1, 10))
      val r = ctx.bindLocal("r", dense(1, 20, 11))
      Seq((x * c + r) * 2.0 - 1.0)
    }
  }
  test("cell unary chain: sigmoid(exp(log(abs(X)+1)))") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", dense(25, 15, 12))
      Seq(((x.abs + 1.0).log).exp.sigmoid)
    }
  }
  test("cell row/col/full aggregations over fused chains") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", dense(30, 12, 13))
      val y = ctx.bindLocal("Y", dense(30, 12, 14))
      Seq((x * y).rowSums, (x * y).colSums, (x * y).sum, (x - y).rowMins)
    }
  }
  test("cell sparse-safe NoAgg output stays sparse under Gen") {
    val ctx = new ExecContext(GenMode(CostBased))
    implicit val c: ExecContext = ctx
    val x = ctx.bindLocal("X", sparse(40, 30, 15))
    val y = ctx.bindLocal("Y", dense(40, 30, 16))
    val res = ctx.eval(Seq(x * y * 2.0)).head.toLocal
    assert(res.isSparseFormat, "sparse-safe cell output should remain sparse")
  }

  // ---- Fig. 1(c): multi-aggregates -------------------------------------
  test("Fig1c: sum(X^2), sum(X*Y), sum(Y^2) dense and sparse") {
    for (mk <- Seq(dense _, sparse _))
      TestLA.modesAgree() { implicit ctx =>
        val x = ctx.bindLocal("X", mk(35, 25, 17))
        val y = ctx.bindLocal("Y", mk(35, 25, 18))
        Seq((x ^ 2.0).sum, (x * y).sum, (y ^ 2.0).sum)
      }
  }
  test("Fig1c Gen merges shared-input aggregates into a multi-aggregate") {
    val ctx = new ExecContext(GenMode(CostBased))
    implicit val c: ExecContext = ctx
    val x = ctx.bindLocal("X", dense(35, 25, 17))
    val y = ctx.bindLocal("Y", dense(35, 25, 18))
    val plan = ctx.compilePlan(Seq((x ^ 2.0).sum, (x * y).sum, (y ^ 2.0).sum).map(_.hop))
    assert(plan.ops.exists {
      case PFused(c) => c.tpe == MAggTpl && c.roots.size > 1
      case _         => false
    }, plan.toString)
  }

  // ---- Fig. 1(b) / Eq. (2): Row ----------------------------------------
  test("Fig1b: t(X) %*% (X %*% v)") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", dense(60, 10, 19))
      val v = ctx.bindLocal("v", dense(10, 1, 20))
      Seq(x.t %*% (x %*% v))
    }
  }
  test("weighted mmchain: t(X) %*% (w * (X %*% v))") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", dense(60, 10, 21))
      val v = ctx.bindLocal("v", dense(10, 1, 22))
      val w = ctx.bindLocal("w", pos(60, 1, 23))
      Seq(x.t %*% (w * (x %*% v)))
    }
  }
  test("Eq2 MLogreg pattern: H = t(X)(Q - P*rowSums(Q)), Q = P*(Xv)") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(50, 8, 24))
      val p = ctx.bindLocal("P", pos(50, 4, 25))
      val v = ctx.bindLocal("V", dense(8, 4, 26))
      val q = p * (x %*% v)
      Seq(x.t %*% (q - p * q.rowSums))
    }
  }
  test("Eq2 over sparse X") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", sparse(50, 8, 27))
      val p = ctx.bindLocal("P", pos(50, 4, 28))
      val v = ctx.bindLocal("V", dense(8, 4, 29))
      val q = p * (x %*% v)
      Seq(x.t %*% (q - p * q.rowSums))
    }
  }
  test("Eq2 Gen plan fuses into a single pass over X") {
    val plan = TestLA.genFusesAtLeast(1) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(50, 8, 24))
      val p = ctx.bindLocal("P", pos(50, 4, 25))
      val v = ctx.bindLocal("V", dense(8, 4, 26))
      val q = p * (x %*% v)
      Seq(x.t %*% (q - p * q.rowSums))
    }
    assert(plan.ops.size == 1, s"expected one fused operator:\n$plan")
  }
  test("matrix-matrix chain t(X) %*% (X %*% V) with narrow V") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 12, 30))
      val v = ctx.bindLocal("V", dense(12, 3, 31))
      Seq(x.t %*% (x %*% v))
    }
  }
  test("row chain ending in colSums and sum") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 12, 32))
      val v = ctx.bindLocal("v", dense(12, 1, 33))
      val xv = x %*% v
      Seq((x * xv).colSums, (x * xv).sum)
    }
  }

  // ---- Fig. 1(d) / Eq. (1): Outer --------------------------------------
  test("Fig1d: sum(X * log(U t(V) + eps)) sparse and dense") {
    for (sp <- Seq(0.1, 1.0))
      TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
        val x = ctx.bindLocal("X", MatrixBlock.rand(40, 35, sp, 34, min = 0.1, max = 1))
        val u = ctx.bindLocal("U", pos(40, 6, 35))
        val v = ctx.bindLocal("V", pos(35, 6, 36))
        Seq((x * ((u %*% v.t) + 1e-15).log).sum)
      }
  }
  test("Eq1 ALS right_mm: ((X!=0) * (U t(V))) %*% V + 1e-6*U*r") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", sparse(45, 38, 37))
      val u = ctx.bindLocal("U", dense(45, 5, 38))
      val v = ctx.bindLocal("V", dense(38, 5, 39))
      val r = ctx.bindLocal("r", dense(45, 1, 40))
      Seq(((x.neq0 * (u %*% v.t)) %*% v) + u * 1e-6 * r)
    }
  }
  test("ALS left_mm: t((X!=0) * (U t(V))) %*% U") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", sparse(45, 38, 41))
      val u = ctx.bindLocal("U", dense(45, 5, 42))
      val v = ctx.bindLocal("V", dense(38, 5, 43))
      Seq((x.neq0 * (u %*% v.t)).t %*% u)
    }
  }
  test("wsloss: sum(((X!=0) * (U t(V)) - X)^2)") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", sparse(45, 38, 44))
      val u = ctx.bindLocal("U", dense(45, 5, 45))
      val v = ctx.bindLocal("V", dense(38, 5, 46))
      Seq((((x.neq0 * (u %*% v.t)) - x) ^ 2.0).sum)
    }
  }
  test("Outer Gen plan avoids the dense UV' intermediate (sparse-safe op)") {
    val ctx = new ExecContext(GenMode(CostBased))
    implicit val c: ExecContext = ctx
    val x = ctx.bindLocal("X", sparse(45, 38, 37))
    val u = ctx.bindLocal("U", dense(45, 5, 38))
    val v = ctx.bindLocal("V", dense(38, 5, 39))
    val plan = ctx.compilePlan(Seq(((x.neq0 * (u %*% v.t)) %*% v).hop))
    val outer = plan.ops.collect { case PFused(s) if s.tpe == OuterTpl => s }
    assert(outer.nonEmpty, s"expected an Outer operator:\n$plan")
  }

  // ---- CSEs and materialization points ----------------------------------
  test("shared subexpression with two consumers (materialization point)") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(30, 10, 47))
      val y = ctx.bindLocal("Y", dense(30, 10, 48))
      val shared = (x * y).exp
      Seq(shared.rowSums, (shared * 2.0).colSums, shared.sum)
    }
  }
  test("overlapping fused operators over one intermediate") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(30, 10, 49))
      val v = ctx.bindLocal("v", dense(10, 1, 50))
      val xv = x %*% v
      Seq((x * xv).sum, (xv ^ 2.0).sum)
    }
  }
  test("mini-batch slice feeding a fused chain") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(64, 10, 51))
      val w = ctx.bindLocal("W", dense(10, 4, 52))
      val b = ctx.bindLocal("b", dense(1, 4, 53))
      val xb = x.sliceRows(16, 48)
      Seq(((xb %*% w) + b).sigmoid)
    }
  }
  test("kmeans-style assignment: A = (D == rowMins(D))") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 6, 54))
      val cB = ctx.bindLocal("C", dense(5, 6, 55))
      val d = (x %*% cB.t) * -2.0 + ((cB ^ 2.0).rowSums).t
      val a = d.eqv(d.rowMins)
      Seq(a.colSums, a.t %*% x)
    }
  }

  // ---- a transpose under a cell-wise or aggregate consumer --------------
  // A Row operator iterates rows of its main input, so it must not absorb
  // t(U) below an aggregate: its rows would be U's, not t(U)'s.
  private val genModes = Seq(BaseMode, GenMode(CostBased), GenMode(FuseAll), GenMode(FuseNoRedundancy))
  test("colSums(t(U)) with U 40x3 equals Base (1x40)") {
    TestLA.modesAgree(genModes) { implicit ctx =>
      Seq(ctx.bindLocal("U", dense(40, 3, 56)).t.colSums)
    }
  }
  test("rowMaxs(t(U)) with U 40x3 equals Base (3x1)") {
    TestLA.modesAgree(genModes) { implicit ctx =>
      Seq(ctx.bindLocal("U", dense(40, 3, 57)).t.rowMaxs)
    }
  }

  // A Row operator for t(X) %*% Z accumulates one row of X per row of Z;
  // with a column vector on the left that is a dot product, not a Row pattern.
  test("t(u) %*% abs(u) with u 40x1 equals Base (1x1)") {
    TestLA.modesAgree(genModes) { implicit ctx =>
      val u = ctx.bindLocal("u", dense(40, 1, 58))
      Seq(u.t %*% u.abs)
    }
  }

  // ---- a Row matmult of a per-row scalar and a 1 x k row: outer product --
  // Per row, the scalar times the right operand's one row is a vector of
  // length k, not a scalar.
  test("(v %*% t(w)) %*% abs(t(X)) with v, w 6x1, X 40x6 equals Base (6x40)") {
    TestLA.modesAgree() { implicit ctx =>
      val v = ctx.bindLocal("v", dense(6, 1, 90))
      val w = ctx.bindLocal("w", dense(6, 1, 91))
      val x = ctx.bindLocal("X", dense(40, 6, 92))
      Seq((v %*% w.t) %*% x.t.abs)
    }
  }
  test("rowSums(t(X)) %*% colSums(abs(t(X))) with X 40x20 equals Base (20x40)") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 20, 93))
      Seq(x.t.rowSums %*% x.t.abs.colSums)
    }
  }
  test("max(log(abs(V) + 1), v %*% b) with V 20x20 equals Base") {
    TestLA.modesAgree() { implicit ctx =>
      val vm = ctx.bindLocal("V", dense(20, 20, 94))
      val v = ctx.bindLocal("v", dense(20, 1, 95))
      val b = ctx.bindLocal("b", dense(1, 20, 96))
      Seq((vm.abs + 1.0).log max (v %*% b))
    }
  }

  test("(abs(y %*% t(z)) + sign(X)) %*% abs(V) with y 40x1, z 20x1 equals Base") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val y = ctx.bindLocal("y", dense(40, 1, 100))
      val z = ctx.bindLocal("z", dense(20, 1, 101))
      val x = ctx.bindLocal("X", dense(40, 20, 102))
      val v = ctx.bindLocal("V", dense(20, 4, 103))
      Seq(((y %*% z.t).abs + x.sign) %*% v.abs)
    }
  }
  test("rowMaxs(sign(min(v %*% t(y), abs(t(X))))) over sparse X equals Base") {
    TestLA.modesAgree() { implicit ctx =>
      val v = ctx.bindLocal("v", dense(20, 1, 104))
      val y = ctx.bindLocal("y", dense(40, 1, 105))
      val x = ctx.bindLocal("X", MatrixBlock.rand(40, 20, 0.15, 106, min = -1, max = 1))
      Seq((v %*% y.t).min(x.t.abs).sign.rowMaxs)
    }
  }

  // ---- Row CPlans the generated code cannot read per row are refused -----
  // and extraction takes the next-ranked entry.
  test("X %*% (A %*% A) with A = abs(t(X) %*% X), X 40x5 equals Base") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 5, 97))
      val a = (x.t %*% x).abs
      Seq(x %*% (a %*% a))
    }
  }
  // The generated code reads a matmult's right operand whole, so it cannot
  // be the main input, which it reads by row.
  test("rowSums(abs(X) %*% X) with X 40x40 equals Base, dense and sparse") {
    for (mk <- Seq(dense _, sparse _))
      TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
        val x = ctx.bindLocal("X", mk(40, 40, 110))
        Seq((x.abs %*% x).rowSums)
      }
  }
  // A Row operator adds up its rows' results: a column max is no sum.
  test("colMaxs(X * 2.0) equals Base") {
    TestLA.modesAgree() { implicit ctx =>
      val x = ctx.bindLocal("X", dense(40, 20, 107))
      Seq(new MX(new AggHop(Ops.MaxAgg, Ops.ColDir, (x * 2.0).hop)))
    }
  }
  test("t(V) %*% t(X) with V 20x3, X 40x20 equals Base (3x40)") {
    TestLA.modesAgree() { implicit ctx =>
      val v = ctx.bindLocal("V", dense(20, 3, 98))
      val x = ctx.bindLocal("X", dense(40, 20, 99))
      Seq(v.t %*% x.t)
    }
  }
  test("abs(t(U %*% t(U))) %*% y with U 40x3 equals Base (an Outer entry without opening matmult)") {
    TestLA.modesAgree() { implicit ctx =>
      val u = ctx.bindLocal("U", dense(40, 3, 108))
      val y = ctx.bindLocal("y", dense(40, 1, 109))
      Seq((u %*% u.t).t.abs %*% y)
    }
  }

  // ---- an Outer operator needs an input of the outer product's size -----
  // Its skeleton iterates the cells of that input (the driver X); without
  // one there is nothing to iterate, and U %*% t(V) stays a basic matmult.
  test("(U %*% t(V)) * 0.5 with U 40x3, V 20x3 equals Base (40x20)") {
    TestLA.modesAgree(genModes) { implicit ctx =>
      val u = ctx.bindLocal("U", dense(40, 3, 59))
      val v = ctx.bindLocal("V", dense(20, 3, 60))
      Seq((u %*% v.t) * 0.5)
    }
  }
  test("(u %*% t(v)) * 2.0 with u 40x1, v 20x1 equals Base (40x20)") {
    TestLA.modesAgree(genModes) { implicit ctx =>
      val u = ctx.bindLocal("u", dense(40, 1, 61))
      val v = ctx.bindLocal("v", dense(20, 1, 62))
      Seq((u %*% v.t) * 2.0)
    }
  }
  test("((X != 0) * (U %*% t(V)) - X)^2 keeps its Outer operator") {
    def build(ctx: ExecContext): Seq[MX] = {
      implicit val c: ExecContext = ctx
      val x = ctx.bindLocal("X", sparse(40, 20, 63))
      val u = ctx.bindLocal("U", dense(40, 3, 64))
      val v = ctx.bindLocal("V", dense(20, 3, 65))
      Seq(((x.neq0 * (u %*% v.t)) - x) ^ 2.0)
    }
    TestLA.modesAgree(genModes)(build)
    val plan = TestLA.genFusesAtLeast(1)(build)
    assert(plan.ops.exists { case PFused(c) => c.tpe == OuterTpl; case _ => false }, plan)
  }

  // ---- an Outer operator iterates only the non-zeros of its driver ------
  // so it binds only where the chain is sparse-safe w.r.t. that driver
  // (0 + 1 is not 0); otherwise Gen must fall back to another plan.
  private def outerFactors(ctx: ExecContext): (MX, MX, MX) =
    (ctx.bindLocal("X", sparse(40, 20, 66)), ctx.bindLocal("U", dense(40, 3, 67)),
      ctx.bindLocal("V", dense(20, 3, 68)))
  test("X * (U %*% t(V)) + 1.0 over sparse X equals Base") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val (x, u, v) = outerFactors(ctx)
      Seq(x * (u %*% v.t) + 1.0)
    }
  }
  test("sum((X + 1.0) * (U %*% t(V))) over sparse X equals Base") {
    TestLA.modesAgree(tol = 1e-8) { implicit ctx =>
      val (x, u, v) = outerFactors(ctx)
      Seq(((x + 1.0) * (u %*% v.t)).sum)
    }
  }
  test("the ALS loss is one sparse-safe Outer operator rooted at the sum") {
    val plans = TestLA.genPlans { implicit ctx =>
      val (x, u, v) = outerFactors(ctx)
      Seq((((x.neq0 * (u %*% v.t)) - x) ^ 2.0).sum)
    }
    for ((label, plan) <- plans) plan.ops match {
      case Seq(PFused(c)) =>
        assert(c.tpe == OuterTpl && c.sparseSafe && c.outerVariant.contains(OuterFullAgg), s"$label: $plan")
      case _ => fail(s"$label: expected one fused operator:\n$plan")
    }
  }

  // ---- min/max multi-aggregates over sparse S ---------------------------
  // S holds only positive values, so the min of abs(S) + S and the max of
  // -S are the implicit zeros a sparse iteration must not miss.
  test("min/max multi-aggregates over sparse S observe implicit zeros") {
    def build(ctx: ExecContext): Seq[MX] = {
      implicit val c: ExecContext = ctx
      val s = ctx.bindLocal("S", MatrixBlock.rand(40, 30, 0.2, 69, min = 0.1, max = 1))
      Seq((s * 2.0).maxAll, (s.abs + s).minAll, (s * -1.0).maxAll)
    }
    TestLA.modesAgree()(build)
    val plan = TestLA.genFusesAtLeast(1)(build)
    assert(plan.ops.exists { case PFused(c) => c.tpe == MAggTpl && c.sparseSafe; case _ => false }, plan)
  }

  // ---- Cell row and column aggregates -----------------------------------
  // Over a distributed X wider than a block's columns, a Row operator would
  // need whole rows per block (constraint Z, infinite cost), so Cell
  // operators aggregate. X is ultra-sparse (fewer non-zeros than rows), so
  // most rows and many columns are empty.
  test("Cell row and column aggregates over ultra-sparse wide X equal Base") {
    val x0 = MatrixBlock.rand(256, 40, 0.02, 70, min = -1, max = 1)
    assert(x0.nnz < x0.rows, s"${x0.nnz} non-zeros in ${x0.rows} rows")
    val cfg = CostConfig(localMemBudget = 1L << 10, distLatencyS = 0.0, blockCols = 16)
    def build(ctx: ExecContext, x: MX): Seq[MX] = {
      implicit val c: ExecContext = ctx
      Seq((x * 2.0).rowSums, x.abs.colSums, (x * 3.0).rowMaxs, (x * 3.0).rowMins)
    }
    val lCtx = new ExecContext(BaseMode)
    val expect = lCtx.eval(build(lCtx, lCtx.bindLocal("X", x0))).map(_.toLocal)
    withDist(repro.dist.DistOps.fromLocal(spark, x0, 16)) { dm =>
      for (mode <- TestLA.allModes) {
        val ctx = new ExecContext(mode, cfg, Some(spark), 16)
        val roots = build(ctx, ctx.bindDist("X", dm))
        if (mode == GenMode(CostBased)) {
          val variants = ctx.compilePlan(roots.map(_.hop)).ops.collect {
            case PFused(c) if c.tpe == CellTpl => c.cellVariant.get
          }
          assert(variants.exists(_.isInstanceOf[CellRowAgg]) && variants.exists(_.isInstanceOf[CellColAgg]), variants)
        }
        ctx.eval(roots).map(_.toLocal).zip(expect).zipWithIndex.foreach { case ((g, e), k) =>
          val d = MatrixBlock.maxAbsDiff(g, e)
          assert(d <= 1e-8, s"${mode.label} output $k differs from Base by $d")
        }
      }
    }
  }

  // ---- ExecRef: one instance per thread, Java serialization -------------
  /** Eq2's t(X) %*% (Q - P*rowSums(Q)): one Row operator whose generated
    * class keeps ring-buffer fields for its vector intermediates. */
  private def eq2(x: MX, p: MX, v: MX): MX = {
    val q = p * (x %*% v)
    x.t %*% (q - p * q.rowSums)
  }
  private def eq2Inputs(seed: Long): Map[String, MatrixBlock] =
    Map("X" -> dense(400, 8, seed), "P" -> pos(400, 4, seed + 1), "V" -> dense(8, 4, seed + 2))
  private def eq2Dag(mode: ExecMode, in: Map[String, MatrixBlock]): (ExecContext, MX) = {
    val ctx = new ExecContext(mode)
    (ctx, eq2(ctx.bindLocal("X", in("X")), ctx.bindLocal("P", in("P")), ctx.bindLocal("V", in("V"))))
  }
  private def eq2Base(in: Map[String, MatrixBlock]): MatrixBlock = {
    val (ctx, root) = eq2Dag(BaseMode, in)
    ctx.eval(Seq(root)).head.toLocal
  }
  private def eq2Operator(): (SpoofOperator, CPlan) = {
    val (ctx, root) = eq2Dag(GenMode(CostBased), eq2Inputs(1))
    val cplan = ctx.compilePlan(Seq(root.hop)).ops match {
      case Seq(PFused(cplan)) => cplan
      case ops                => fail(s"expected one fused operator, got $ops")
    }
    assert(cplan.tpe == RowTpl)
    (Codegen.compile(cplan), cplan)
  }
  /** The operator's inputs in CPlan order, taken from `in` by leaf name. */
  private def blocksFor(cplan: CPlan, in: Map[String, MatrixBlock]): IndexedSeq[MatrixBlock] =
    cplan.inputs.map {
      case l: LeafHop => in(l.leafName)
      case l: LitHop  => MatrixBlock.dense(1, 1, Array(l.value))
      case h          => fail(s"unexpected operator input $h")
    }

  test("compiled Row operator on 4 threads, one instance each") {
    val (op, cplan) = eq2Operator()
    val inputs = (1 to 4).map(t => eq2Inputs(100L * t))
    val start = new java.util.concurrent.CountDownLatch(1)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val diffs = inputs.map { in =>
        val blocks = blocksFor(cplan, in)
        val exp = eq2Base(in)
        pool.submit(new java.util.concurrent.Callable[Double] {
          def call(): Double = {
            start.await()
            (1 to 50).map(_ => MatrixBlock.maxAbsDiff(op.execute(blocks), exp)).max
          }
        })
      }
      start.countDown()
      diffs.zipWithIndex.foreach { case (f, t) =>
        val d = f.get()
        assert(d <= 1e-8, s"thread $t differs from its Base result by $d")
      }
    } finally pool.shutdown()
  }

  test("compiled operator survives a Java serialization round trip") {
    val (op, cplan) = eq2Operator()
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    try out.writeObject(op) finally out.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[SpoofOperator]
    assert(copy ne op)
    val blocks = blocksFor(cplan, eq2Inputs(7))
    assert(MatrixBlock.maxAbsDiff(copy.execute(blocks), op.execute(blocks)) == 0.0)
  }

  // ---- class cache keyed by generated source ----------------------------
  test("plan cache hits on repeated identical DAGs") {
    JavaBackend.clearCache()
    CodegenStats.reset()
    def once(): Unit = {
      val ctx = new ExecContext(GenMode(CostBased))
      implicit val c: ExecContext = ctx
      val x = ctx.bindLocal("X", dense(30, 10, 56))
      val y = ctx.bindLocal("Y", dense(30, 10, 57))
      ctx.eval(Seq((x * y).sum))
    }
    once(); val compiledAfter1 = CodegenStats.operatorsCompiled.get()
    once(); once()
    assert(CodegenStats.operatorsCompiled.get() == compiledAfter1,
      "identical DAGs must not recompile operators")
    assert(CodegenStats.planCacheHits.get() >= 2)
  }

  test("40-deep cell chains that differ only at the bottom each equal Base") {
    for (f <- Seq[MX => MX](_.exp, _.log))
      TestLA.modesAgree(Seq(BaseMode, GenMode(CostBased)), tol = 1e-6) { implicit ctx =>
        val x = ctx.bindLocal("X", pos(30, 20, 58))
        Seq((1 to 40).foldLeft(f(x))((m, _) => m + 1.0).sum)
      }
  }

  test("one generated class serves CPlans with different skeleton parameters") {
    def run(x: MatrixBlock, agg: MX => MX): Unit =
      TestLA.modesAgree(Seq(BaseMode, GenMode(CostBased))) { implicit ctx =>
        Seq(agg(ctx.bindLocal("X", x) * ctx.bindLocal("Y", dense(40, 30, 60))))
      }
    JavaBackend.clearCache()
    CodegenStats.reset()
    run(sparse(40, 30, 59), _.sum)
    assert(CodegenStats.operatorsCompiled.get() == 1 && CodegenStats.planCacheHits.get() == 0)
    // the same cell body over a dense main input, with a Cell skeleton
    // (no aggregation) instead of a multi-aggregate one
    run(dense(40, 30, 59), identity)
    assert(CodegenStats.operatorsCompiled.get() == 1, "the second operator must reuse the first one's class")
    assert(CodegenStats.planCacheHits.get() == 1)
  }
}
