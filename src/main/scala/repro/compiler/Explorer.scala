package repro.compiler

import repro.core._

/** OFMC candidate exploration (paper Algorithm 1): a single bottom-up,
  * template-oblivious pass over the HOP DAG that populates the memo table
  * with all valid partial fusion plans. Linear in the number of operators;
  * at most O(2^|inputs| * |T|) entries per operator. Validity here is the
  * templates' local OFMC conditions only; whether an entry's operator can
  * bind its inputs (an Outer operator needs a sparse driver) is decided
  * once, by [[CPlan.construct]] when [[PlanExtractor]] extracts it.
  */
object Explorer {

  /** Explore the DAG under `roots` and return the populated memo table. */
  def explore(roots: Seq[Hop]): MemoTable = {
    val memo = new MemoTable
    roots.foreach(rec(_, memo))
    memo
  }

  private def rec(h: Hop, memo: MemoTable): Unit = {
    // memoization of processed operators (lines 1-3)
    if (memo.visited.contains(h.id)) return
    // recursive exploration of inputs (lines 4-6)
    h.inputs.foreach(rec(_, memo))
    memo.register(h)
    // leaves and literals are materialized inputs, never fused operators
    if (!h.isInstanceOf[LeafHop] && !h.isInstanceOf[LitHop]) {
      // open initial operator plans (lines 7-10)
      for (t <- TemplateType.all if t.open(h))
        memo.add(h, createPlans(h, None, t, memo))
      // fuse and merge existing partial plans from the inputs (lines 11-15)
      for (in <- h.inputs.distinct; t <- memo.templates(in.id).distinct)
        if (memo.hasCompatibleOpen(in.id, Set(t)) && t.fuse(h, in))
          memo.add(h, createPlans(h, Some(in), t, memo))
      // close operator plans if required (lines 16-20)
      val closedEntries = memo.entries(h.id).flatMap { e =>
        e.tpe.close(h) match {
          case ClosedInvalid => None
          case ClosedValid   => Some(e.copy(closed = ClosedValid))
          case OpenValid     => Some(e)
        }
      }
      memo.replace(h.id, closedEntries)
      // prune redundant plans (line 22)
      memo.pruneRedundant(h.id)
    }
    memo.visited += h.id // W[*] <- W[*] u g_i (line 23)
  }

  /** Enumerate all local plan combinations for an entry of template `t` at
    * `h`: the fused input (if any) is referenced; every other input may
    * independently be read materialized (-1) or merged if the pair-wise
    * merge condition holds and the input group has a compatible open plan.
    */
  private def createPlans(h: Hop, fusedIn: Option[Hop], t: TemplateType, memo: MemoTable): Seq[MemoEntry] = {
    val options: IndexedSeq[Seq[Long]] = h.inputs.map { in =>
      if (fusedIn.exists(_ eq in)) Seq(in.id)
      else if (t.merge(h, in) && memo.hasCompatibleOpen(in.id, t.compatible)) Seq(-1L, in.id)
      else Seq(-1L)
    }
    cartesian(options).map(refs => MemoEntry(t, refs, OpenValid))
  }

  private def cartesian(options: IndexedSeq[Seq[Long]]): Seq[IndexedSeq[Long]] =
    options.foldLeft(Seq(IndexedSeq.empty[Long])) { (acc, opts) =>
      for (a <- acc; o <- opts) yield a :+ o
    }
}
