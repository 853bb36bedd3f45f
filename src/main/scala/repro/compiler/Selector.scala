package repro.compiler

import scala.collection.immutable.BitSet
import scala.collection.mutable
import repro.core._

/** Candidate selection policy (paper §4.1). */
sealed trait Policy
case object FuseAll          extends Policy // Gen-FA heuristic
case object FuseNoRedundancy extends Policy // Gen-FNR heuristic
case object CostBased        extends Policy // Gen: MPSkipEnum per partition

/** Candidate selection: choose the cost-optimal, non-conflicting set of
  * partial fusion plans (paper §4). Partitions are enumerated
  * independently over their interesting points with cost-based skip-ahead
  * and structural (cut-set) pruning.
  */
object Selector {

  /** Cap on the interesting points a partition enumerates (1024 plans
    * before pruning). The paper enumerates every point; a partition with
    * more keeps its first `MaxPoints` in the search and gives the tail the
    * values of the cheaper full heuristic assignment, fuse-all or
    * fuse-no-redundancy ([[enumeratePartition]]). Without a tighter lower
    * bound, pruning skips too few plans to lift the cap. */
  val MaxPoints = 10

  /** Selection cache: optimal materialization decisions per structural DAG
    * signature and cost configuration. Iterative algorithms recompile the
    * same DAG shape every iteration (dynamic recompilation); the decisions
    * carry over because hop ids are remapped through the deterministic
    * topological order. This extends the paper's plan cache (§2.1) from
    * generated operators to plan selections. */
  private val selectionCache = scala.collection.concurrent.TrieMap[String, Set[(Int, Int)]]()

  def clearSelectionCache(): Unit = selectionCache.clear()

  /** Everything the selection depends on: the cost configuration, and per
    * hop its operator, dimensions, sparsity bucket, inputs and, for a
    * leaf, whether it is bound to distributed data. */
  private def dagSignature(topo: Seq[Hop], cfg: CostConfig): String = {
    val idx = topo.zipWithIndex.map { case (h, i) => h.id -> i }.toMap
    val sb = new StringBuilder(cfg.toString).append('|')
    topo.foreach { h =>
      val nm = h match {
        case _: LitHop      => "lit" // scalar values never change the plan shape
        case l: LeafHop     => if (l.forceDistributed) "dleaf" else "leaf"
        case _: RowSliceHop => "rix" // slice bounds don't either (mini-batching)
        case _              => h.name
      }
      // bucketed sparsity: ultra-sparse / sparse / medium / dense
      val sp = if (h.sparsity < 1e-4) 'u' else if (h.sparsity < 0.05) 's'
               else if (h.sparsity < 0.4) 'm' else 'd'
      sb.append(nm).append(':').append(h.rows).append('x').append(h.cols).append(sp)
      h.inputs.foreach(in => sb.append(',').append(idx(in.id)))
      sb.append(';')
    }
    sb.toString
  }

  def select(dagRoots: Seq[Hop], memo: MemoTable, policy: Policy, cfg: CostConfig): ExecPlan = {
    prefilterConstraints(dagRoots, memo, cfg)
    val consumers = Hop.consumers(dagRoots)
    policy match {
      case FuseAll =>
        memo.pruneDominated(consumers.map { case (k, v) => k -> v.size })
        PlanExtractor.extract(dagRoots, memo, Set.empty)
      case FuseNoRedundancy =>
        memo.pruneDominated(consumers.map { case (k, v) => k -> v.size })
        val edges = for {
          (target, cons) <- consumers.toSeq if cons.size > 1 && memo.contains(target)
          g <- cons
        } yield (g.id, target)
        PlanExtractor.extract(dagRoots, memo, edges.toSet)
      case CostBased =>
        val topo = Hop.collect(dagRoots)
        val idToIdx = topo.zipWithIndex.map { case (h, i) => h.id -> i }.toMap
        val sig = dagSignature(topo, cfg)
        val edges: Set[(Long, Long)] = selectionCache.get(sig) match {
          case Some(posEdges) =>
            posEdges.map { case (c, t) => (topo(c).id, topo(t).id) }
          case None =>
            val partitions = Partitions.analyze(dagRoots, memo)
            val allEdges = mutable.Set[(Long, Long)]()
            partitions.foreach { p =>
              allEdges ++= enumeratePartition(dagRoots, memo, p, cfg)
            }
            selectionCache.put(sig,
              allEdges.map { case (c, t) => (idToIdx(c), idToIdx(t)) }.toSet)
            allEdges.toSet
        }
        PlanExtractor.extract(dagRoots, memo, edges)
    }
  }

  /** Best-effort prefiltering of constraint violations (paper §4.4):
    * Row-template entries whose main input is distributed and wider than
    * the block size cannot execute distributed. */
  private def prefilterConstraints(dagRoots: Seq[Hop], memo: MemoTable, cfg: CostConfig): Unit =
    memo.filterEntries { (h, e) =>
      e.tpe != RowTpl || !(h +: h.inputs).exists(in =>
        in.numCells > 1 && CostModel.isDistributedHop(in, cfg) && in.cols > cfg.blockCols)
    }

  // ------------------------------------------------------- MPSkipEnum

  /** Enumerate one partition's interesting points; returns the
    * materialized-edge set of the optimal assignment (paper Algorithm 2).
    * Above the cap, the tail points take the values of the cheaper of two
    * full assignments, fuse-all and fuse-no-redundancy, whose cost also
    * opens the search as its upper bound: the result is never worse than
    * either heuristic. */
  def enumeratePartition(dagRoots: Seq[Hop], memo: MemoTable, p: PlanPartition,
                         cfg: CostConfig): Set[(Long, Long)] = {
    if (p.points.isEmpty) return Set.empty
    val planCost = new PlanExtractor.PartitionCost(dagRoots, memo, p, cfg)
    val seed = Option.when(p.points.length > MaxPoints) {
      val fuseAll = BitSet.empty
      val fuseNoRedundancy = BitSet.fromSpecific(p.points.indices.filterNot(p.points(_).isSwitch))
      Seq(fuseAll, fuseNoRedundancy).map { q =>
        CodegenStats.plansEvaluated.incrementAndGet()
        (q, planCost(q))
      }.minBy(_._2)
    }
    val forced = seed.fold(BitSet.empty)(_._1.filter(_ >= MaxPoints))
    val layout = orderByCutSet(memo, p, p.points.indices.take(MaxPoints))
    val best = mpSkipEnum(p, planCost, CostModel.lowerBound(p, memo, cfg), layout.points, layout.cutSet,
      forced, seed)
    best.unsorted.map(p.points(_).edge)
  }

  /** Search-space layout: indexes into the partition's points, any cut set
    * first; the cut set's sides as positions in that order. */
  private final case class Layout(points: IndexedSeq[Int], cutSet: Option[CutSet])
  private final case class CutSet(size: Int, s1: IndexedSeq[Int], s2: IndexedSeq[Int])

  /** Core enumeration over `points` (already laid out with any cut set at
    * the most significant positions). The `forced` points are materialized
    * in every costed plan (the cap's tail and sub-problem recursion); a
    * `seed` assignment and its cost open the search as the best so far.
    * Returns the best plan as the set of its materialized points. */
  private def mpSkipEnum(p: PlanPartition, planCost: PlanExtractor.PartitionCost,
                         lowerBound: Set[Long] => Double, points: IndexedSeq[Int],
                         cutSet: Option[CutSet], forced: BitSet,
                         seed: Option[(BitSet, Double)]): BitSet = {
    val n = points.length

    var bestQ: Array[Boolean] = seed.map { case (q, _) => points.map(q).toArray }.orNull
    var bestC = seed.fold(Double.PositiveInfinity)(_._2)

    def materialized(q: Array[Boolean]): BitSet =
      forced ++ points.indices.iterator.filter(q).map(points)

    val total = 1L << n
    var j = 0L
    // cut-set trigger: all cut-set bits true, everything after false — the
    // first plan of the final subtree in the negative-to-positive layout
    val csTrigger = cutSet.map(cs => ((1L << cs.size) - 1) << (n - cs.size))

    while (j < total) {
      val q = createAssignment(n, j)
      if (csTrigger.contains(j)) {
        // structural pruning: the materialized cut set makes the two point
        // sets independent sub-problems (paper §4.4, Fig. 7(b))
        val cs = cutSet.get
        val csMat = materialized(q)
        for (sub <- Seq(cs.s1, cs.s2) if sub.nonEmpty) {
          val subBest = mpSkipEnum(p, planCost, lowerBound, sub.map(points), None, csMat, None)
          sub.foreach(ix => q(ix) = subBest(points(ix)))
        }
        val c = planCost(materialized(q))
        CodegenStats.plansEvaluated.incrementAndGet()
        if (c < bestC) { bestC = c; bestQ = q.clone() }
        CodegenStats.plansSkipped.addAndGet(total - j - 1)
        j = total // everything remaining has the cut set materialized: solved optimally above
      } else {
        // cost-based pruning via lower bound (paper Alg. 2 lines 11-15)
        val targets = points.indices.collect { case i if q(i) => p.points(points(i)).target }.toSet
        val lb = lowerBound(targets)
        if (lb >= bestC) {
          val x = lastIndexOfTrue(q)
          val skip = if (x < 0) 1L else 1L << (n - 1 - x)
          CodegenStats.plansSkipped.addAndGet(skip - 1)
          j += skip
        } else {
          val c = planCost(materialized(q))
          CodegenStats.plansEvaluated.incrementAndGet()
          if (bestQ == null || c < bestC) { bestC = c; bestQ = q.clone() }
          j += 1
        }
      }
    }
    materialized(if (bestQ == null) createAssignment(n, 0) else bestQ)
  }

  /** Plan j as booleans, most significant bit first — the linearized
    * search space runs from all-false (fuse-all, a good opening upper
    * bound) to all-true. */
  def createAssignment(n: Int, j: Long): Array[Boolean] = {
    val q = new Array[Boolean](n)
    var i = 0
    while (i < n) { q(i) = ((j >> (n - 1 - i)) & 1L) == 1L; i += 1 }
    q
  }

  private def lastIndexOfTrue(q: Array[Boolean]): Int = {
    var i = q.length - 1
    while (i >= 0 && !q(i)) i -= 1
    i
  }

  /** Build the reachability-based cut-set layout of the points `idx`:
    * candidates are the composite points per target; a candidate is a
    * valid cut iff the remaining points split into disjoint ancestor (S1)
    * and descendant (S2) sides. The best-scoring cut (paper Eq. 5) is
    * placed at the most significant positions of the search space. */
  private def orderByCutSet(memo: MemoTable, p: PlanPartition, idx: IndexedSeq[Int]): Layout = {
    if (idx.length < 3) return Layout(idx, None)
    val pts = idx.map(p.points)
    val byTarget = pts.zipWithIndex.groupBy(_._1.target)

    def score(csSize: Int, s1: Int, s2: Int): Double =
      ((math.pow(2, csSize) - 1) / math.pow(2, csSize)) * math.pow(2, pts.length) +
        (math.pow(2, s1) + math.pow(2, s2)) / math.pow(2, csSize)

    val candidates = byTarget.toSeq.flatMap { case (target, members) =>
      val csIdx = members.map(_._2)
      val tHop = memo.hop(target)
      val rest = pts.zipWithIndex.filterNot { case (_, i) => csIdx.contains(i) }
      val (s1, s2) = rest.partition { case (pt, _) =>
        // ancestors of the cut: the cut target is reachable from them
        Partitions.reaches(memo.hop(pt.target), target, p.nodes)
      }
      val s2Valid = s2.forall { case (pt, _) =>
        Partitions.reaches(tHop, pt.target, p.nodes) || pt.target == target
      }
      if (s1.nonEmpty && s2.nonEmpty && s2Valid)
        Some((score(csIdx.length, s1.length, s2.length), csIdx, s1.map(_._2), s2.map(_._2)))
      else None
    }

    candidates.sortBy(_._1).headOption match {
      case Some((_, cs, s1, s2)) =>
        val order = cs ++ s1 ++ s2
        val pos = order.zipWithIndex.map { case (old, nw) => old -> nw }.toMap
        Layout(order.map(idx).toIndexedSeq, Some(CutSet(cs.length,
          s1.map(pos).toIndexedSeq.sorted, s2.map(pos).toIndexedSeq.sorted)))
      case None => Layout(idx, None)
    }
  }

  /** Exhaustive reference enumeration (tests only): cost every assignment. */
  def bruteForcePartition(dagRoots: Seq[Hop], memo: MemoTable, p: PlanPartition,
                          cfg: CostConfig): (Set[(Long, Long)], Double) = {
    val n = p.points.length
    require(n <= 22, s"brute force over $n points")
    var bestC = Double.PositiveInfinity
    var best: Set[(Long, Long)] = Set.empty
    var j = 0L
    while (j < (1L << n)) {
      val q = createAssignment(n, j)
      val edges = p.points.zipWithIndex.collect { case (pt, i) if q(i) => pt.edge }.toSet
      val plan = PlanExtractor.extract(dagRoots, memo, edges)
      val c = CostModel.planCost(plan, cfg, Some(p.nodes))
      if (c < bestC) { bestC = c; best = edges }
      j += 1
    }
    (best, bestC)
  }
}
