package repro.compiler

import scala.collection.mutable
import repro.core._

/** Turns the memo table plus a set of materialization decisions into a
  * concrete execution plan: for every HOP whose output must exist, either
  * a basic operator or the best local fused operator (paper §4.3 "query
  * the memo table for the best fusion plan regarding template type and
  * fusion references").
  *
  * The heuristics of §4.1 are special cases of the materialized-edge set:
  * fuse-all = {} and fuse-no-redundancy = every multi-consumer dependency.
  */
object PlanExtractor {

  /** Rank of an entry when several cover a node: maximal fusion references
    * first, then template preference (Outer > Row > MAgg > Cell). */
  private def rank(e: MemoEntry): (Int, Int) = (e.countRefs, e.tpe.preference)

  /** Per-extraction memo of entry validity (avoids re-walking ref chains). */
  private type ValidCache = mutable.Map[(Long, MemoEntry), Boolean]

  def extract(dagRoots: Seq[Hop], memo: MemoTable, materialized: Set[(Long, Long)]): ExecPlan = {
    implicit val cache: ValidCache = mutable.Map.empty
    ExecPlan(mergeMultiAggs(ExecPlan.build(dagRoots)(h =>
      chooseBest(h, memo, materialized).map(PFused))))
  }

  /** The operator of the best valid entry for starting an operator at `h`
    * (open or closed) whose CPlan binds its inputs; an Outer entry without
    * a sparse driver (such as the bare matmult) does not, and the
    * next-ranked entry is tried. A bare transpose never roots a fused
    * operator: its entries exist only to be merged into matmult patterns. */
  private def chooseBest(h: Hop, memo: MemoTable, mat: Set[(Long, Long)])
                        (implicit cache: ValidCache): Option[CPlan] =
    if (h.isInstanceOf[TransposeHop]) None
    else memo.entries(h.id).filter(e => entryValid(h, e, memo, mat))
      .sortBy(rank)(Ordering[(Int, Int)].reverse).iterator
      .flatMap(e => expand(h, e, memo, mat)).nextOption()

  private def entryValid(h: Hop, e: MemoEntry, memo: MemoTable, mat: Set[(Long, Long)])
                        (implicit cache: ValidCache): Boolean =
    cache.getOrElseUpdate((h.id, e),
      e.refs.zipWithIndex.forall { case (r, j) =>
        r < 0 || (!mat.contains((h.id, r)) &&
          memo.entries(r).exists(s => s.isOpen && e.tpe.compatible.contains(s.tpe) &&
            entryValid(h.inputs(j), s, memo, mat)))
      })

  /** Best valid OPEN entry at `in` compatible with the parent template. */
  private def chooseCompatOpen(in: Hop, parent: TemplateType, memo: MemoTable,
                               mat: Set[(Long, Long)])
                              (implicit cache: ValidCache): Option[MemoEntry] = {
    val valid = memo.entries(in.id).filter(e =>
      e.isOpen && parent.compatible.contains(e.tpe) && entryValid(in, e, memo, mat))
    if (valid.isEmpty) None else Some(valid.maxBy(rank))
  }

  /** Expand the fused operator rooted at (h, entry): follow fusion
    * references top-down, collecting covered nodes and materialized
    * inputs, and bind them into the operator's CPlan. */
  private def expand(h: Hop, entry: MemoEntry, memo: MemoTable, mat: Set[(Long, Long)])
                    (implicit cache: ValidCache): Option[CPlan] = {
    val covered = mutable.Set[Long]()
    val inputs = mutable.LinkedHashSet[Hop]()

    def rec(hop: Hop, e: MemoEntry): Unit = {
      covered += hop.id
      // the transposed factor of an Outer opening matmult is part of the
      // pattern: the skeleton reads V's rows directly, never t(V)
      val absorbed: Option[Hop] = hop match {
        case m: MatMulHop if e.tpe == OuterTpl && TemplateType.isOuterMatMul(m) &&
          !covered.contains(m.right.id) =>
          val t = m.right.asInstanceOf[TransposeHop]
          covered += t.id
          inputs += t.in
          Some(t)
        case _ => None
      }
      hop.inputs.zipWithIndex.foreach { case (in, j) =>
        if (!absorbed.exists(_ eq in)) {
          val fusedHere = e.refs(j) >= 0 && !mat.contains((hop.id, in.id)) && !covered.contains(in.id)
          val sub = if (fusedHere) chooseCompatOpen(in, e.tpe, memo, mat) else None
          if (covered.contains(in.id)) () // diamond inside the fused operator
          else sub match {
            case Some(s) => rec(in, s)
            case None    => inputs += in
          }
        }
      }
    }
    rec(h, entry)
    CPlan.construct(h, entry.tpe, covered.toSet, inputs.toIndexedSeq)
  }

  /** Merge adjacent full aggregates with shared inputs into multi-aggregate
    * operators (paper Fig. 1(c)): one scan over the shared input. */
  private def mergeMultiAggs(ops: Seq[POp]): Seq[POp] = {
    val result = mutable.ArrayBuffer[POp]()
    val mergedAt = mutable.Map[Int, mutable.ArrayBuffer[CPlan]]()
    def dims(c: CPlan) = (c.chainRoot.rows, c.chainRoot.cols)

    ops.foreach {
      case PFused(cplan) if cplan.tpe == MAggTpl =>
        // group with an earlier aggregate sharing any input (max 3 per
        // group); chains must have identical dims to share one cell scan
        val grp = mergedAt.values.find(g =>
          g.size < 3 && dims(g.head) == dims(cplan) &&
            g.exists(_.inputs.exists(i => cplan.inputs.exists(_ eq i))))
        grp match {
          case Some(g) => g += cplan
          case None =>
            mergedAt(result.size) = mutable.ArrayBuffer(cplan)
            result += null // placeholder, filled below
        }
      case op =>
        result += op
    }
    result.indices.foreach { i =>
      if (result(i) == null) {
        val g = mergedAt(i)
        result(i) = PFused(if (g.size == 1) g.head else CPlan.multiAgg(g.toSeq))
      }
    }
    result.toSeq
  }
}
