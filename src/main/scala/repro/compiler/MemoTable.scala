package repro.compiler

import scala.collection.mutable
import repro.core.Hop

/** A partial fusion plan (memo table entry, paper §3.1): a template type,
  * one reference per HOP input — either the input's group id (fuse) or -1
  * (read materialized) — and a close status.
  */
final case class MemoEntry(tpe: TemplateType, refs: IndexedSeq[Long], closed: CloseStatus) {
  def hasRefs: Boolean = refs.exists(_ >= 0)
  def countRefs: Int = refs.count(_ >= 0)
  def refSet: Set[Long] = refs.filter(_ >= 0).toSet
  def isClosedValid: Boolean = closed == ClosedValid
  def isOpen: Boolean = closed == OpenValid
  override def toString: String =
    s"${tpe.name}(${refs.mkString(",")})${if (isClosedValid) "c" else ""}"
}

/** Memoization table of partial fusion plans: one group per operator that
  * is amenable to fusion, identified by the operator id (paper §3.1,
  * structurally similar to Cascades groups).
  */
final class MemoTable {
  private val groups  = mutable.LinkedHashMap[Long, mutable.LinkedHashSet[MemoEntry]]()
  private val hopsById = mutable.Map[Long, Hop]()
  /** W[*]: operators already processed (with or without plans). */
  val visited = mutable.Set[Long]()

  def contains(id: Long): Boolean = groups.contains(id) && groups(id).nonEmpty
  def entries(id: Long): Seq[MemoEntry] = groups.get(id).map(_.toSeq).getOrElse(Seq.empty)
  def hop(id: Long): Hop = hopsById(id)
  def groupIds: Seq[Long] = groups.keys.toSeq.filter(contains)

  /** Register hop metadata (every visited operator, entries or not) so
    * partition analysis and costing can resolve input/root sizes. */
  def register(h: Hop): Unit = hopsById(h.id) = h

  def add(h: Hop, es: Seq[MemoEntry]): Unit = if (es.nonEmpty) {
    hopsById(h.id) = h
    val g = groups.getOrElseUpdate(h.id, mutable.LinkedHashSet.empty)
    g ++= es
  }

  def replace(id: Long, es: Seq[MemoEntry]): Unit = {
    val g = groups.getOrElseUpdate(id, mutable.LinkedHashSet.empty)
    g.clear()
    g ++= es
  }

  /** Distinct template types with any entry in the group. */
  def templates(id: Long): Seq[TemplateType] =
    entries(id).map(_.tpe).distinct

  /** Does group `id` contain an OPEN entry of one of `tpes`? (A reference
    * from an entry to a group requires a compatible open plan there.) */
  def hasCompatibleOpen(id: Long, tpes: Set[TemplateType]): Boolean =
    entries(id).exists(e => e.isOpen && tpes.contains(e.tpe))

  /** Remove duplicates (set semantics already) and closed-valid entries
    * without group references — they would cover a single operator. */
  def pruneRedundant(id: Long): Unit = groups.get(id).foreach { g =>
    val pruned = g.filterNot(e => e.isClosedValid && !e.hasRefs)
    if (pruned.size != g.size) { g.clear(); g ++= pruned }
  }

  /** Dominance pruning (only safe for selection heuristics, paper §3.2):
    * an entry is dominated if all its references point to operators with a
    * single consumer and another entry of the same type has a strict
    * superset of references. */
  def pruneDominated(consumerCounts: Map[Long, Int]): Unit =
    for ((_, g) <- groups) {
      val dominated = g.filter { e =>
        e.refSet.forall(r => consumerCounts.getOrElse(r, 0) <= 1) &&
          g.exists(o => (o ne e) && o.tpe == e.tpe && o.closed == e.closed &&
            e.refSet.subsetOf(o.refSet) && e.refSet != o.refSet)
      }
      g --= dominated
    }

  /** Remove entries failing a predicate (used for constraint prefiltering). */
  def filterEntries(p: (Hop, MemoEntry) => Boolean): Unit =
    for ((id, g) <- groups) {
      val keep = g.filter(e => p(hopsById(id), e))
      g.clear(); g ++= keep
    }

  def copyTable(): MemoTable = {
    val m = new MemoTable
    m.hopsById ++= hopsById
    for ((id, g) <- groups)
      m.groups(id) = mutable.LinkedHashSet(g.toSeq: _*)
    m.visited ++= visited
    m
  }

  override def toString: String =
    groups.collect { case (id, g) if g.nonEmpty =>
      s"  ${hopsById(id)}: ${g.mkString(", ")}"
    }.mkString("MemoTable(\n", "\n", "\n)")
}
