package repro.compiler

import scala.collection.immutable.BitSet
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

  /** Is the dependency (consumer, target) materialized? A set of edges, or
    * a view that records which edges were asked about. */
  private type Materialized = ((Long, Long)) => Boolean

  /** Per-extraction memo of entry validity (avoids re-walking ref chains). */
  private type ValidCache = mutable.Map[(Long, MemoEntry), Boolean]

  def extract(dagRoots: Seq[Hop], memo: MemoTable, materialized: Set[(Long, Long)]): ExecPlan =
    ExecPlan(mergeMultiAggs(operators(dagRoots, memo, materialized)))

  /** The plan's operators before multi-aggregates are merged. */
  private def operators(dagRoots: Seq[Hop], memo: MemoTable, materialized: Set[(Long, Long)]): Seq[POp] = {
    implicit val cache: ValidCache = mutable.Map.empty
    ExecPlan.build(dagRoots)(h => chooseBest(h, memo, materialized).map(PFused))
  }

  /** Costs the plans of one partition `p`, each given as the set of its
    * interesting points (indexes into `p.points`) that are materialized.
    * `apply(mat)` equals `CostModel.planCost(extract(dagRoots, memo, edges
    * of mat), cfg, Some(p.nodes))`, summed in the same order, but extracts
    * only the partition's operators:
    *  - An operator rooted outside `p` never depends on `p`'s points, so
    *    those are extracted once. The walk starts at the partition nodes
    *    that are DAG roots or inputs of those operators, and stops at
    *    `p`'s inputs.
    *  - The operator at a node is chosen by [[chooseBest]], which depends
    *    on the plan only through the points it asks about. The operator and
    *    its cost are kept per node with the answers it got, and reused by
    *    every later plan that gives the same answers.
    *  - Every full aggregate outside `p` joins the merge of
    *    multi-aggregates, which may fuse it with one of `p`'s. */
  final class PartitionCost(dagRoots: Seq[Hop], memo: MemoTable, p: PlanPartition, cfg: CostConfig) {
    private val topo = Hop.collect(dagRoots)
    private val topoIdx: Map[Long, Int] = topo.iterator.map(_.id).zipWithIndex.toMap
    private val outside = operators(dagRoots, memo, Set.empty).filterNot(op => p.nodes(op.outputs.head.id))
    private val seeds: Seq[Hop] = (dagRoots ++ outside.flatMap(_.inputs)).filter(h => p.nodes(h.id)).distinct
    private val fixed: Seq[(Int, POp)] = outside
      .filter(op => isMAgg(op) || CostModel.inScope(op, p.nodes))
      .map(op => (topoIdx(op.outputs.head.id), op))
    /** Every operator built so far, by identity, with what it adds to the
      * partition's cost: its cost if in scope, else 0. */
    private val costs = new java.util.IdentityHashMap[POp, java.lang.Double]()
    private def scopeCost(op: POp): Double =
      if (CostModel.inScope(op, p.nodes)) CostModel.opCost(op, cfg) else 0.0
    fixed.foreach { case (_, op) => costs.put(op, scopeCost(op)) }

    private val pointAt: Map[(Long, Long), Int] = p.points.iterator.map(_.edge).zipWithIndex.toMap

    /** An operator chosen at a node, valid for every plan that agrees with
      * the one it was chosen under on the points [[chooseBest]] asked about:
      * `set` materialized, `unset` not. */
    private final class Choice(val set: Array[Int], val unset: java.util.BitSet, val op: POp) {
      def matches(mat: java.util.BitSet): Boolean = !mat.intersects(unset) && set.forall(mat.get)
    }

    /** A partition node and the operators chosen at it so far. */
    private final class Node(val hop: Hop, val topo: Int) {
      private val choices = mutable.ArrayBuffer[Choice]()

      def operator(mat: java.util.BitSet): POp = choices.find(_.matches(mat)).fold {
        val asked = new java.util.BitSet
        val ask: Materialized = e => pointAt.get(e).exists { i => asked.set(i); mat.get(i) }
        implicit val cache: ValidCache = mutable.Map.empty
        val op = chooseBest(hop, memo, ask).fold[POp](PBasic.of(hop))(PFused)
        costs.put(op, scopeCost(op))
        val set = asked.clone().asInstanceOf[java.util.BitSet]
        set.and(mat)
        asked.andNot(mat)
        choices += new Choice(set.stream.toArray, asked, op)
        op
      }(_.op)
    }
    private val nodes = mutable.LongMap[Node]()
    topo.iterator.zipWithIndex.foreach { case (h, i) => if (p.nodes(h.id)) nodes(h.id) = new Node(h, i) }

    def apply(mat: BitSet): Double = {
      val matBits = java.util.BitSet.valueOf(mat.toBitMask)
      val ops = mutable.ArrayBuffer[(Int, POp)](fixed: _*)
      val produced = mutable.BitSet()
      val stack = mutable.Stack[Hop](seeds: _*)
      while (stack.nonEmpty) {
        val n = nodes.getOrNull(stack.pop().id)
        if (n != null && produced.add(n.topo)) {
          val op = n.operator(matBits)
          ops += ((n.topo, op))
          op.inputs.foreach(stack.push)
        }
      }
      // a multi-aggregate merged for this plan is the only new operator
      mergeMultiAggs(ops.sortBy(_._1).map(_._2).toSeq).iterator
        .map(op => Option(costs.get(op)).fold(scopeCost(op))(_.doubleValue))
        .sum
    }
  }

  private def isMAgg(op: POp): Boolean = op match {
    case PFused(cplan) => cplan.tpe == MAggTpl
    case _             => false
  }

  /** The operator of the best valid entry for starting an operator at `h`
    * (open or closed) whose CPlan binds its inputs; an Outer entry without
    * a sparse driver (such as the bare matmult) does not, and the
    * next-ranked entry is tried. A bare transpose never roots a fused
    * operator: its entries exist only to be merged into matmult patterns. */
  private def chooseBest(h: Hop, memo: MemoTable, mat: Materialized)
                        (implicit cache: ValidCache): Option[CPlan] =
    if (h.isInstanceOf[TransposeHop]) None
    else memo.entries(h.id).filter(e => entryValid(h, e, memo, mat))
      .sortBy(rank)(Ordering[(Int, Int)].reverse).iterator
      .flatMap(e => expand(h, e, memo, mat)).nextOption()

  private def entryValid(h: Hop, e: MemoEntry, memo: MemoTable, mat: Materialized)
                        (implicit cache: ValidCache): Boolean =
    cache.getOrElseUpdate((h.id, e),
      e.refs.zipWithIndex.forall { case (r, j) =>
        r < 0 || (!mat((h.id, r)) &&
          memo.entries(r).exists(s => s.isOpen && e.tpe.compatible.contains(s.tpe) &&
            entryValid(h.inputs(j), s, memo, mat)))
      })

  /** Best valid OPEN entry at `in` compatible with the parent template. */
  private def chooseCompatOpen(in: Hop, parent: TemplateType, memo: MemoTable,
                               mat: Materialized)
                              (implicit cache: ValidCache): Option[MemoEntry] = {
    val valid = memo.entries(in.id).filter(e =>
      e.isOpen && parent.compatible.contains(e.tpe) && entryValid(in, e, memo, mat))
    if (valid.isEmpty) None else Some(valid.maxBy(rank))
  }

  /** Expand the fused operator rooted at (h, entry): follow fusion
    * references top-down, collecting covered nodes and materialized
    * inputs, and bind them into the operator's CPlan. */
  private def expand(h: Hop, entry: MemoEntry, memo: MemoTable, mat: Materialized)
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
          val fusedHere = e.refs(j) >= 0 && !mat((hop.id, in.id)) && !covered.contains(in.id)
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
    // groups in the order they open, each at its first aggregate's position
    val groups = mutable.ArrayBuffer[(Int, mutable.ArrayBuffer[PFused])]()
    def dims(c: CPlan) = (c.chainRoot.rows, c.chainRoot.cols)

    ops.foreach {
      case op @ PFused(cplan) if cplan.tpe == MAggTpl =>
        // join the first group with an aggregate sharing any input (max 3
        // per group); chains must have identical dims to share one cell scan
        groups.find { case (_, g) =>
          g.size < 3 && dims(g.head.cplan) == dims(cplan) &&
            g.exists(_.inputs.exists(i => cplan.inputs.exists(_ eq i)))
        } match {
          case Some((_, g)) => g += op
          case None =>
            groups += ((result.size, mutable.ArrayBuffer(op)))
            result += null // placeholder, filled below
        }
      case op =>
        result += op
    }
    groups.foreach { case (i, g) =>
      result(i) = if (g.size == 1) g.head else PFused(CPlan.multiAgg(g.map(_.cplan).toSeq))
    }
    result.toSeq
  }
}
