package repro.compiler

import repro.core._
import repro.runtime.Ops._

/** Cost model configuration: peak bandwidths and execution-type
  * constraints (paper §4.3 and "Constraints and Distributed Operations").
  * Absolute values need not match the hardware — plan choice depends on
  * ratios — but defaults approximate a single-threaded JVM runtime.
  */
final case class CostConfig(
    readBandwidth: Double = 32e9,     // B/s, local reads
    writeBandwidth: Double = 16e9,    // B/s, local writes (alloc + write)
    computeBandwidth: Double = 50e9,  // FLOP/s (paper-like ratio: element-wise ops are IO-bound, matmults compute-bound)
    distReadBandwidth: Double = 1e9,  // B/s for broadcasts/shuffles of side inputs
    distLatencyS: Double = 0.05,      // per distributed operation (job launch)
    localMemBudget: Long = 4L << 30,  // bytes: larger intermediates go distributed
    blockCols: Long = 4096,           // B_c: max ncol for distributed Row templates
    broadcastBudget: Long = 1L << 30, // max bytes per broadcast side input
)

/** Analytical, time-based cost model for execution plans (paper Eq. 4):
  * C = sum_p ( T^w_p + max(T^r_p, T^c_p) ), with sparsity-exploiting
  * operators scaling compute by the sparsity of the main input, and
  * penalized reads for local side inputs of distributed operators.
  */
object CostModel {

  /** Estimated serialized size of a hop's output. */
  def sizeBytes(h: Hop): Double =
    if (isSparse(h)) h.nnz.toDouble * 12.0 else h.numCells.toDouble * 8.0

  /** Is a hop's output held in the sparse format? */
  def isSparse(h: Hop): Boolean = h.sparsity < 0.4 && h.numCells > 1

  /** Effective flops of a scalar op — transcendental functions cost far
    * more than one FLOP (important for redundant-compute decisions over
    * exp/log chains). */
  private def opWeight(op: UnaryOp): Double = op match {
    case Exp | Log | Sigmoid => 32.0
    case Sqrt                => 8.0
    case _                   => 1.0
  }
  private def opWeight(op: BinaryOp): Double = op match {
    case Pow => 32.0
    case Div => 4.0
    case _   => 1.0
  }

  /** Floating point operations to compute `h` from materialized inputs. */
  def flops(h: Hop): Double = h match {
    case m: MatMulHop =>
      2.0 * m.left.rows * m.left.cols * m.right.cols *
        math.max(m.left.sparsity, 1e-12)
    case u: UnaryHop     => h.numCells.toDouble * opWeight(u.op)
    case b: BinaryHop    => h.numCells.toDouble * opWeight(b.op)
    case a: AggHop       => a.in.numCells.toDouble
    case t: TransposeHop => t.in.numCells.toDouble
    case r: RowSliceHop  => r.numCells.toDouble
    case _               => 0.0
  }

  /** Does this hop's output live distributed (mirrors the executor)? A
    * leaf lives where it was bound: the executor never distributes one. */
  def isDistributedHop(h: Hop, cfg: CostConfig): Boolean = h match {
    case l: LeafHop => l.forceDistributed
    case _          => sizeBytes(h) > cfg.localMemBudget.toDouble
  }

  /** Cost of a single plan operator. */
  def opCost(op: POp, cfg: CostConfig): Double = {
    val outputs = op.outputs
    val inputs = op.inputs.distinct.filterNot(_.isInstanceOf[LitHop])
    val dist = (outputs ++ inputs).exists(isDistributedHop(_, cfg))

    // constraint Z: distributed Row templates need whole rows per block;
    // distributed side inputs must fit the broadcast budget
    op match {
      case PFused(cplan) if dist =>
        val main = cplan.inputs.head
        if (cplan.tpe == RowTpl && isDistributedHop(main, cfg) && main.cols > cfg.blockCols)
          return Double.PositiveInfinity
        val sides = cplan.inputs.drop(1)
        if (sides.exists(s => !isDistributedHop(s, cfg) && sizeBytes(s) > cfg.broadcastBudget.toDouble))
          return Double.PositiveInfinity
      case _ =>
    }

    val readTime = inputs.map { in =>
      val bw =
        if (dist && !isDistributedHop(in, cfg)) cfg.distReadBandwidth // broadcast penalty
        else cfg.readBandwidth
      sizeBytes(in) / bw
    }.sum

    val writeTime = outputs.map(o => sizeBytes(o) / cfg.writeBandwidth).sum

    val computeTime = op match {
      case PBasic(h, _) => flops(h) / cfg.computeBandwidth
      case PFused(cplan) =>
        val main = cplan.inputs.head
        // sparsity-exploiting operators iterate the non-zeros of their main
        // input (the sparse driver)
        val scale = if (cplan.sparseSafe) math.max(main.sparsity, 1e-9) else 1.0
        val total = cplan.roots.map(r => CPlan.coveredHops(r, cplan.covered).map(flops).sum).sum
        // Row skeletons read a dense main row in place and a sparse one by
        // its non-zeros, which a chain may scatter into a dense row
        val rowRead =
          if (cplan.tpe != RowTpl || !isSparse(main)) 0.0
          else main.nnz.toDouble + (if (cplan.scattersMainRow) main.numCells.toDouble else 0.0)
        (total * scale + rowRead) / cfg.computeBandwidth
      case h: PHandCoded =>
        throw new IllegalArgumentException(s"the Fused baseline is never costed: $h")
    }

    val latency = if (dist) cfg.distLatencyS else 0.0
    writeTime + math.max(readTime, computeTime) + latency
  }

  /** Cost of the full plan, optionally restricted to the operators of
    * `scope` (a plan partition). */
  def planCost(plan: ExecPlan, cfg: CostConfig, scope: Option[Set[Long]] = None): Double =
    plan.ops.iterator.filter(op => scope.forall(inScope(op, _))).map(opCost(_, cfg)).sum

  /** Does `op` belong to the cost of partition `scope`: it materializes
    * one of the partition's nodes or covers one inside a fused operator? */
  def inScope(op: POp, scope: Set[Long]): Boolean =
    op.outputs.exists(o => scope.contains(o.id)) || (op match {
      case PFused(cplan) => cplan.covered.exists(scope.contains)
      case _             => false
    })

  /** Lower bound of any plan of `partition` as a function of its
    * materialized targets (paper §4.4, C_lb = C_static + GetMPCost): reads
    * of partition inputs, minimal computation (each node once, at the best
    * possible sparsity scaling), writes of partition roots, plus one
    * write + read per distinct materialized target. Since per-operator cost
    * is write + max(read, compute), summing max(Σread, Σcompute) is sound.
    * The static part is computed once, when the bound is built. */
  def lowerBound(partition: PlanPartition, memo: MemoTable, cfg: CostConfig): Set[Long] => Double = {
    val readFloor =
      partition.inputs.toSeq.map(id => sizeBytes(memo.hop(id)) / cfg.readBandwidth).sum
    val writeFloor =
      partition.roots.toSeq.map(id => sizeBytes(memo.hop(id)) / cfg.writeBandwidth).sum
    // the smallest sparsity any sparsity-exploiting operator could scale by
    val minScale = math.max(1e-9,
      (partition.nodes ++ partition.inputs).map(id => memo.hop(id).sparsity).minOption.getOrElse(1.0))
    val computeFloor =
      partition.nodes.toSeq.map(id => flops(memo.hop(id))).sum * minScale / cfg.computeBandwidth
    val static = math.max(readFloor, computeFloor) + writeFloor
    materializedTargets => static + materializedTargets.toSeq.map { id =>
      val h = memo.hop(id)
      sizeBytes(h) / cfg.writeBandwidth + sizeBytes(h) / cfg.readBandwidth
    }.sum
  }
}
