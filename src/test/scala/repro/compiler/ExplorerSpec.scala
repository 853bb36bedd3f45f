package repro.compiler

import repro.{SparkSpec, TestLA}
import repro.core._
import repro.runtime._

/** OFMC candidate exploration (paper Algorithm 1, Fig. 5): memo table
  * structure, open/fuse/merge/close behavior, and pruning rules. */
class ExplorerSpec extends SparkSpec {

  private def ctx = new ExecContext(GenMode(CostBased))

  private def dense(r: Int, c: Int) = MatrixBlock.rand(r, c, 1.0, 1, min = -1, max = 1)
  private def sparse(r: Int, c: Int) = MatrixBlock.rand(r, c, 0.1, 2, min = -1, max = 1)

  test("leaves and literals never get memo groups") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val e = (x * 2.0).sum
    val memo = Explorer.explore(Seq(e.hop))
    assert(!memo.contains(x.hop.id))
  }

  test("cell chain: every cellwise op gets Cell entries with fuse refs") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val y = c.bindLocal("Y", dense(20, 10))
    val prod = x * y            // b(*)
    val prod2 = prod * 2.0      // b(*2)
    val memo = Explorer.explore(Seq(prod2.hop))
    assert(memo.entries(prod.hop.id).exists(e => e.tpe == CellTpl && !e.hasRefs))
    assert(memo.entries(prod2.hop.id).exists(e =>
      e.tpe == CellTpl && e.refs.contains(prod.hop.id)))
  }

  test("aggregation closes the Cell template (closed-valid with refs)") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val y = c.bindLocal("Y", dense(20, 10))
    val s = (x * y).sum
    val memo = Explorer.explore(Seq(s.hop))
    val aggEntries = memo.entries(s.hop.id)
    assert(aggEntries.nonEmpty)
    assert(aggEntries.filter(_.tpe == CellTpl).forall(_.isClosedValid))
  }

  test("pruning: closed-valid entries without refs are removed (Fig. 5 group 7)") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val rs = (x * 2.0).rowSums // rowSums closes Cell; C(-1) at rowSums would cover one op
    val memo = Explorer.explore(Seq(rs.hop))
    assert(memo.entries(rs.hop.id).forall(e => !(e.isClosedValid && !e.hasRefs)))
  }

  test("Eq2 DAG: the final matmult has the three Row alternatives of Fig. 5") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(50, 8))
    val p = c.bindLocal("P", dense(50, 4))
    val v = c.bindLocal("V", dense(8, 4))
    val q = p * (x %*% v)
    val h = x.t %*% (q - p * q.rowSums)
    val memo = Explorer.explore(Seq(h.hop))
    val mm = h.hop.asInstanceOf[MatMulHop]
    val tX = mm.left
    val inner = mm.right
    val rows = memo.entries(mm.id).filter(_.tpe == RowTpl)
    // fuse right R(-1, chain), fuse left R(t(X), -1), fuse both R(t(X), chain)
    assert(rows.exists(e => e.refs(0) < 0 && e.refs(1) == inner.id), rows.toString)
    assert(rows.exists(e => e.refs(0) == tX.id && e.refs(1) < 0), rows.toString)
    assert(rows.exists(e => e.refs(0) == tX.id && e.refs(1) == inner.id), rows.toString)
    // t(X) itself carries an open Row entry (read X rows, transposed)
    assert(memo.entries(tX.id).exists(e => e.tpe == RowTpl && e.isOpen))
  }

  test("X %*% v opens a Row template; merge covers Cell chains (X^T(y*z) case)") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(30, 6))
    val y = c.bindLocal("y", dense(30, 1))
    val z = c.bindLocal("z", dense(30, 1))
    val e = x.t %*% (y * z)
    val memo = Explorer.explore(Seq(e.hop))
    val mm = e.hop.asInstanceOf[MatMulHop]
    val chain = mm.right
    assert(memo.entries(chain.id).exists(_.tpe == CellTpl))
    // the matmult merges the Cell chain at its rhs
    assert(memo.entries(mm.id).exists(e2 => e2.tpe == RowTpl && e2.refs(1) == chain.id))
  }

  test("outer template opens at U t(V) and closes at the full aggregate") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", sparse(40, 35))
    val u = c.bindLocal("U", dense(40, 5))
    val v = c.bindLocal("V", dense(35, 5))
    val withDriver = (x * (u %*% v.t)).sum
    val memo = Explorer.explore(Seq(withDriver.hop))
    assert(memo.entries(withDriver.hop.id).exists(e => e.tpe == OuterTpl && e.isClosedValid))
  }

  // without a sparse driver there is nothing for an Outer skeleton to
  // iterate: its CPlan does not bind, and extraction takes another entry
  test("outer template without a sparse driver binds no Outer operator") {
    def build(c: ExecContext): Seq[MX] = {
      implicit val ic: ExecContext = c
      val u = c.bindLocal("U", dense(40, 5))
      val v = c.bindLocal("V", dense(35, 5))
      Seq(((u %*% v.t) + 1.0).sum)
    }
    for ((label, plan) <- TestLA.genPlans(build))
      assert(!plan.ops.exists { case PFused(cp) => cp.tpe == OuterTpl; case _ => false }, s"$label: $plan")
    TestLA.modesAgree(tol = 1e-8)(build)
  }

  test("multi-aggregate template opens at full aggregates") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val s = (x ^ 2.0).sum
    val memo = Explorer.explore(Seq(s.hop))
    assert(memo.entries(s.hop.id).exists(_.tpe == MAggTpl))
  }

  test("memoization: shared subexpressions explored once (linear complexity)") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val shared = x * 2.0
    val memo = Explorer.explore(Seq((shared + 1.0).hop, (shared - 1.0).hop))
    assert(memo.visited.contains(shared.hop.id))
    // one group for the shared node, consumers reference the same group
    assert(memo.entries(shared.hop.id).nonEmpty)
  }

  test("dominated-plan pruning removes strict subsets over single-consumer refs") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val y = c.bindLocal("Y", dense(20, 10))
    val a = x * y
    val b = a * 2.0
    val memo = Explorer.explore(Seq(b.hop))
    val before = memo.entries(b.hop.id).count(_.tpe == CellTpl)
    memo.pruneDominated(Map(a.hop.id -> 1))
    val after = memo.entries(b.hop.id).count(_.tpe == CellTpl)
    assert(after <= before)
    assert(memo.entries(b.hop.id).exists(e => e.refs.contains(a.hop.id)))
  }

  test("entry count per operator is bounded by 2^inputs * templates") {
    implicit val c: ExecContext = ctx
    val x = c.bindLocal("X", dense(20, 10))
    val y = c.bindLocal("Y", dense(20, 10))
    val e = (x * y + x) * (x - y)
    val memo = Explorer.explore(Seq(e.hop))
    memo.groupIds.foreach { id =>
      assert(memo.entries(id).size <= 4 * TemplateType.all.size,
        s"group $id has ${memo.entries(id).size} entries")
    }
  }
}
