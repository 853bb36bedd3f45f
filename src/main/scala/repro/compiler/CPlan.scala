package repro.compiler

import scala.collection.mutable
import repro.core._
import repro.runtime.Ops._

/** One operator of a final execution plan. */
sealed trait POp {
  /** HOPs materialized by this operator. */
  def outputs: Seq[Hop]
  def inputs: Seq[Hop]
}
/** Basic (unfused) operator: compute `hop` from materialized `inputs`,
  * the hop's own inputs except where [[PBasic.of]] decides otherwise. */
final case class PBasic(hop: Hop, inputs: Seq[Hop]) extends POp {
  def outputs: Seq[Hop] = Seq(hop)
}
object PBasic {
  def apply(hop: Hop): PBasic = PBasic(hop, hop.inputs)

  /** The basic operator of `h`. A matmult t(Y) %*% Z over a distributed Y
    * reads Y in place of t(Y), in one pass over Y's row blocks: SystemML
    * picks the physical operator of t(X) %*% Z at compile time. t(Y) is
    * built only if another operator reads it. */
  def of(h: Hop, cfg: CostConfig): PBasic = h match {
    case m: MatMulHop if m.left.isInstanceOf[TransposeHop] && CostModel.isDistributedHop(m.left.inputs.head, cfg) =>
      PBasic(m, Seq(m.left.inputs.head, m.right))
    case _ => PBasic(h)
  }
}
/** Fused operator, bound to its CPlan when extracted: one template
  * instance, or a multi-aggregate whose CPlan has k roots (k full
  * aggregates sharing inputs, one scan; paper Fig. 1(c)). */
final case class PFused(cplan: CPlan) extends POp {
  def outputs: Seq[Hop] = cplan.roots
  def inputs: Seq[Hop] = cplan.inputs
}
/** Hand-coded fused operator of the "Fused" baseline (fixed patterns). */
final case class PHandCoded(kind: HandKind, root: Hop, covered: Set[Long],
                            inputs: IndexedSeq[Hop]) extends POp {
  def outputs: Seq[Hop] = Seq(root)
}

/** Fixed patterns of SystemML's hand-coded fused operators (paper §1, [7,13,37]). */
sealed trait HandKind { def name: String }
case object MMChainXtXv  extends HandKind { val name = "mmchain(t(X)%*%(X%*%v))" }
case object MMChainXtwXv extends HandKind { val name = "mmchain(t(X)%*%(w*(X%*%v)))" }
case object HSumSq       extends HandKind { val name = "sum(X^2)" }
case object HSumProd     extends HandKind { val name = "sum(X*Y)" }
case object HWSLoss      extends HandKind { val name = "wsloss" }
case object HWOuterRight extends HandKind { val name = "wdivmm-right" }
case object HWOuterLeft  extends HandKind { val name = "wdivmm-left" }

/** Execution plan: operators in topological order (producers first). */
final case class ExecPlan(ops: Seq[POp]) {
  def fusedOps: Seq[POp] = ops.filterNot(_.isInstanceOf[PBasic])
  override def toString: String = ops.map {
    case PBasic(h, in) => s"  basic $h inputs=${in.mkString(",")}"
    case PFused(c)    => s"  fused[${c.tpe}] roots=${c.roots.mkString(",")} covered={${c.covered.toSeq.sorted.mkString(",")}} inputs=${c.inputs.mkString(",")} src=${c.sourceHash}"
    case PHandCoded(k, r, _, in) => s"  hand[${k.name}] root=$r inputs=${in.mkString(",")}"
  }.mkString("ExecPlan(\n", "\n", "\n)")
}

object ExecPlan {

  /** The one walk from DAG roots to ordered operators, shared by every
    * mode: each materialized hop is offered to `choose`; a claimed
    * operator's inputs are materialized next, an unclaimed hop becomes a
    * [[PBasic.of]]. Operators come out sorted by the topological index of
    * their last output, so producers precede consumers. */
  def build(roots: Seq[Hop], cfg: CostConfig)(choose: Hop => Option[POp]): Seq[POp] = {
    val produced = mutable.Map[Long, POp]()
    val stack = mutable.Stack[Hop](roots: _*)
    while (stack.nonEmpty) {
      val h = stack.pop()
      if (!produced.contains(h.id) && !h.isInstanceOf[LeafHop] && !h.isInstanceOf[LitHop]) {
        val op = choose(h).getOrElse(PBasic.of(h, cfg))
        produced(h.id) = op
        op.inputs.foreach(stack.push)
      }
    }
    val topoIdx = Hop.collect(roots).zipWithIndex.map { case (h, i) => h.id -> i }.toMap
    produced.values.toSeq.sortBy(op => op.outputs.map(o => topoIdx(o.id)).max)
  }
}

/** Row template output variants (paper Table 1). */
sealed trait RowVariant
case object RowNoAgg   extends RowVariant // output rowDim x m
case object RowRowAgg  extends RowVariant // output rowDim x 1
case object RowColAgg  extends RowVariant // output 1 x m, accumulated
case object RowFullAgg extends RowVariant // scalar
case object RowColAggT extends RowVariant // t(X) %*% Z: output cols(X) x cols(Z) (COL_AGG_B1_T)

/** Cell template output variants (paper Table 1). A full aggregate is a
  * one-root MAgg operator, so a Cell operator never yields a scalar. */
sealed trait CellVariant
case object CellNoAgg extends CellVariant                    // output n x m
final case class CellRowAgg(f: AggFunc) extends CellVariant // output n x 1
final case class CellColAgg(f: AggFunc) extends CellVariant // output 1 x m

/** Outer template output variants (paper Table 1). */
sealed trait OuterVariant
case object OuterNoAgg   extends OuterVariant // dense chain output (rare)
case object OuterFullAgg extends OuterVariant // sum over chain
case object OuterRightMM extends OuterVariant // chain %*% W
case object OuterLeftMM  extends OuterVariant // t(chain) %*% W

/** Code generation plan of one fused operator (paper §2.2): covered
  * sub-DAG plus resolved data binding — ordered inputs with the main
  * (template-bound) input first, the output variant, sparse-safety of the
  * chain w.r.t. the main input — and what [[Codegen.emit]] generated for
  * it, the only record of what the operator reads. Built once, when
  * [[PlanExtractor]] extracts the operator; the cost model, code
  * generation and the distributed runtime all read it, none re-derives it.
  * `sparseSafe` alone decides whether a skeleton iterates only the
  * non-zeros of a sparse main input; every Outer CPlan is sparse-safe.
  */
final case class CPlan(
    tpe: TemplateType,
    roots: IndexedSeq[Hop],          // >1 only for MAgg
    covered: Set[Long],
    inputs: IndexedSeq[Hop],         // main input at index 0 (if any matrix input)
    sparseSafe: Boolean,
    rowVariant: Option[RowVariant],
    outerVariant: Option[OuterVariant],
    cellVariant: Option[CellVariant],
    maggFuncs: IndexedSeq[AggFunc],
    rowDim: Long,
    chainRoot: Hop,                  // cell-wise part under the aggregate or closing matmult (MAgg: first root's)
    wIdx: Int,                       // input index of an Outer closing matmult's W, else -1
    opening: Option[MatMulHop] = None, // an Outer chain's opening U %*% t(V)
    sources: IndexedSeq[String] = IndexedSeq.empty, // generated genexec class source(s), one per MAgg root
    byRow: IndexedSeq[Boolean] = IndexedSeq.empty,  // per input: read by row of the main input, else whole
    scattersMainRow: Boolean = false, // Row: the sparse-row variant scatters the main row into a dense one
) {
  def root: Hop = roots.head

  /** A short hash of the generated sources: plan dumps show which code runs. */
  def sourceHash: String = f"${scala.util.hashing.MurmurHash3.seqHash(sources)}%08x"
}

object CPlan {

  /** Is the covered chain from `target`'s perspective zero-propagating from
    * `main` — i.e., a zero in the main input forces a zero (or
    * aggregation-neutral) output, enabling sparse iteration? */
  def isSparseSafe(root: Hop, covered: Set[Long], main: Hop): Boolean = {
    def safe(h: Hop): Boolean = {
      if (h eq main) return true
      if (!covered.contains(h.id)) return false
      h match {
        case u: UnaryHop  => u.op.sparseSafe && safe(u.in)
        case b: BinaryHop => b.op match {
          case Mult => safe(b.left) || safe(b.right)
          case Div  => safe(b.left)
          case Plus | Minus => safe(b.left) && safe(b.right) // 0 +- 0 = 0
          case _    => false
        }
        case a: AggHop if a.func == SumAgg => safe(a.in)
        case m: MatMulHop => safe(m.left) // right_mm over a safe chain
        case t: TransposeHop => safe(t.in)
        case _ => false
      }
    }
    safe(root)
  }

  /** Build the CPlan of the fused operator that [[PlanExtractor]] extracts
    * at `root`: the covered hops and its materialized inputs, in the order
    * extraction found them, and the operator's generated code. None if the
    * template cannot bind the inputs (an Outer operator without opening
    * matmult, sparse driver or bound W) or if [[Codegen.emit]] cannot
    * generate correct code for it. A full aggregate is a one-root MAgg
    * CPlan whether a Cell or an MAgg entry roots it. */
  private[compiler] def construct(root: Hop, tpe: TemplateType, covered: Set[Long],
                                  inputs: IndexedSeq[Hop]): Option[CPlan] = {
    val draft = tpe match {
      case CellTpl | MAggTpl => Some(constructCell(root, covered, inputs))
      case RowTpl            => Some(constructRow(root, covered, inputs))
      case OuterTpl          => constructOuter(root, covered, inputs)
    }
    try draft.map(Codegen.emit) catch { case _: Codegen.CannotEmit => None }
  }

  private def constructCell(root: Hop, covered: Set[Long], inputs: IndexedSeq[Hop]): CPlan = {
    val (tpe, variant, funcs) = root match {
      case a: AggHop => a.dir match {
        case FullDir => (MAggTpl, None, IndexedSeq(a.func))
        case RowDir  => (CellTpl, Some(CellRowAgg(a.func)), IndexedSeq.empty)
        case ColDir  => (CellTpl, Some(CellColAgg(a.func)), IndexedSeq.empty)
      }
      case _ => (CellTpl, Some(CellNoAgg), IndexedSeq.empty)
    }
    val chainRoot = chainOf(root, tpe, covered)
    // main input: the sparse driver; else the largest full-dimension input
    val driver = sparseDriver(chainRoot, covered, inputs)
    val main = driver
      .orElse(fullDim(inputs, chainRoot).sortBy(-_.numCells).headOption)
      .getOrElse(inputs.maxByOption(_.numCells).getOrElse(inputs.head))
    val ordered = main +: inputs.filterNot(_ eq main)
    CPlan(tpe, IndexedSeq(root), covered, ordered,
      sparseSafe = driver.isDefined,
      rowVariant = None, outerVariant = None, cellVariant = variant, maggFuncs = funcs,
      rowDim = chainRoot.rows, chainRoot = chainRoot, wIdx = -1)
  }

  private def constructRow(root: Hop, covered: Set[Long], inputs: IndexedSeq[Hop]): CPlan = {
    // the row dimension: rows iterated by the skeleton
    val rowDim = root match {
      case m: MatMulHop if TemplateType.isTransposeLeftMatMul(m) => m.right.rows
      case a: AggHop if a.dir == ColDir || a.dir == FullDir      => a.in.rows
      case h => h.rows
    }
    val variant = root match {
      case m: MatMulHop if TemplateType.isTransposeLeftMatMul(m) => RowColAggT
      case a: AggHop => a.dir match {
        case ColDir  => RowColAgg
        case FullDir => RowFullAgg
        case RowDir  => RowRowAgg
      }
      case h if h.cols == 1 && h.rows == rowDim => RowRowAgg // vector chain output
      case _ => RowNoAgg
    }
    // main input: the largest row-aligned matrix input
    val rowAligned = inputs.filter(in => in.rows == rowDim && in.numCells > 1 && in.cols > 1)
    val main = rowAligned.sortBy(-_.numCells).headOption
      .orElse(inputs.find(in => in.rows == rowDim && in.numCells > 1))
      .getOrElse(inputs.head)
    val ordered = main +: inputs.filterNot(_ eq main)
    CPlan(RowTpl, IndexedSeq(root), covered, ordered,
      sparseSafe = false, // Row binds to whole rows; sparse rows handled by the skeleton
      rowVariant = Some(variant), outerVariant = None, cellVariant = None,
      maggFuncs = IndexedSeq.empty, rowDim = rowDim, chainRoot = chainOf(root, RowTpl, covered),
      wIdx = -1)
  }

  /** The cell-wise chain of a fused operator: the part under its aggregate
    * or, for Outer, under its closing matmult `chain %*% W` or
    * `t(chain) %*% W`. */
  private def chainOf(root: Hop, tpe: TemplateType, covered: Set[Long]): Hop = root match {
    case a: AggHop => a.in
    case m: MatMulHop if tpe == OuterTpl => m.left match {
      case t: TransposeHop if covered.contains(t.id) => t.in
      case l if !TemplateType.isOuterMatMul(m)     => l
      case _                                       => m
    }
    case h => h
  }

  private def fullDim(inputs: Seq[Hop], chainRoot: Hop): Seq[Hop] =
    inputs.filter(in => in.rows == chainRoot.rows && in.cols == chainRoot.cols && in.numCells > 1)

  /** The sparse driver of a Cell, MAgg or Outer operator: the sparsest
    * full-dimension input from which the chain is sparse-safe. The
    * skeleton iterates its non-zeros, so it is bound as the main input. */
  private def sparseDriver(chainRoot: Hop, covered: Set[Long], inputs: Seq[Hop]): Option[Hop] =
    fullDim(inputs, chainRoot)
      .filter(in => isSparseSafe(chainRoot, covered, in))
      .sortBy(_.sparsity).headOption

  private def constructOuter(root: Hop, covered: Set[Long], inputs: IndexedSeq[Hop]): Option[CPlan] = {
    val chainRoot = chainOf(root, OuterTpl, covered)
    val opening = coveredHops(chainRoot, covered)
      .collectFirst { case m: MatMulHop if TemplateType.isOuterMatMul(m) => m }.getOrElse(return None)
    val u = opening.left
    val v = opening.right.asInstanceOf[TransposeHop].in
    // main = the sparse driver: the skeleton iterates its non-zeros, so
    // without one there is no Outer operator (paper §3.2)
    val main = sparseDriver(chainRoot, covered, inputs).getOrElse(return None)
    val rest = inputs.filterNot(in => (in eq main) || (in eq u) || (in eq v))
    val ordered = IndexedSeq(main, u, v) ++ rest
    val (variant, wIdx) = root match {
      case _: AggHop => (OuterFullAgg, -1)
      case m: MatMulHop if m ne chainRoot =>
        val w = ordered.indexWhere(_ eq m.right)
        if (w < 0) return None
        (if (m.left eq chainRoot) OuterRightMM else OuterLeftMM, w)
      case _ => (OuterNoAgg, -1)
    }
    Some(CPlan(OuterTpl, IndexedSeq(root), covered, ordered,
      sparseSafe = true, opening = Some(opening),
      rowVariant = None, outerVariant = Some(variant), cellVariant = None,
      maggFuncs = IndexedSeq.empty, rowDim = chainRoot.rows, chainRoot = chainRoot, wIdx = wIdx))
  }

  /** Merge k one-root MAgg CPlans into one multi-aggregate CPlan, emitted
    * again for its new input order (each chain emitted alone before). */
  private[compiler] def multiAgg(aggs: Seq[CPlan]): CPlan = {
    val main = aggs.head.inputs.head
    val inputs = (main +: aggs.flatMap(_.inputs).filterNot(_ eq main).distinct).toIndexedSeq
    Codegen.emit(CPlan(MAggTpl, aggs.map(_.root).toIndexedSeq,
      aggs.flatMap(_.covered).toSet,
      inputs,
      sparseSafe = aggs.forall(c => isSparseSafe(c.chainRoot, c.covered, main)),
      rowVariant = None, outerVariant = None, cellVariant = None,
      maggFuncs = aggs.flatMap(_.maggFuncs).toIndexedSeq,
      rowDim = main.rows, chainRoot = aggs.head.chainRoot, wIdx = -1))
  }

  /** All covered hops reachable from `root` (root included if covered). */
  def coveredHops(root: Hop, covered: Set[Long]): Seq[Hop] = {
    val seen = scala.collection.mutable.LinkedHashSet[Hop]()
    def rec(h: Hop): Unit =
      if (covered.contains(h.id) && seen.add(h)) h.inputs.foreach(rec)
    rec(root)
    seen.toSeq
  }
}
