package repro.compiler

import repro.core._
import repro.runtime.Ops._

/** Close status of a memo table entry (paper §3.1). */
sealed trait CloseStatus
case object OpenValid     extends CloseStatus
case object ClosedValid   extends CloseStatus
/** Invalid entry — removed from the memo table at close time. */
case object ClosedInvalid extends CloseStatus

/** The open-fuse-merge-close (OFMC) template abstraction (paper §3.2).
  *
  * Each template type answers four purely local questions; the traversal
  * and memo-table population are template-oblivious ([[Explorer]]):
  *  - `open(h)`: can a new fused operator of this template start at HOP h?
  *  - `fuse(h, in)`: can an open fused operator at input `in` expand to
  *    its consumer `h`?
  *  - `merge(h, in)`: can an open fused operator at consumer `h` absorb
  *    fused plans at its input `in`?
  *  - `close(h)`: does `h` close the template, and is the result valid?
  */
sealed trait TemplateType extends Serializable {
  def name: String
  def open(h: Hop): Boolean
  def fuse(h: Hop, in: Hop): Boolean
  def merge(h: Hop, in: Hop): Boolean
  def close(h: Hop): CloseStatus
  /** Open templates at a referenced input group this template can chain to. */
  def compatible: Set[TemplateType]
  /** Rank order when several entries cover a node equally (higher wins):
    * sparsity-exploiting and wider-scope templates are preferred. */
  def preference: Int
  override def toString: String = name
}

object TemplateType {

  /** Max common dimension for an outer-product-like matmult. */
  val MaxRank = 256
  /** Max rhs columns for a Row-template matrix multiply ("narrow"). */
  val MaxNarrow = 128

  val all: Seq[TemplateType] = Seq(CellTpl, MAggTpl, RowTpl, OuterTpl)

  /** Element-wise op with matrix output (unary or binary with broadcasting). */
  def isCellwise(h: Hop): Boolean = h match {
    case u: UnaryHop  => u.numCells > 1
    case b: BinaryHop => b.numCells > 1
    case _            => false
  }

  def isFullAgg(h: Hop): Boolean = h match {
    case a: AggHop => a.dir == FullDir
    case _         => false
  }

  /** X %*% v with a narrow rhs: executed per row of X (vectMatMult). */
  def isNarrowMatMul(h: Hop): Boolean = h match {
    case m: MatMulHop =>
      !m.left.isInstanceOf[TransposeHop] && m.left.rows > 1 &&
        m.right.cols <= MaxNarrow && !m.left.isScalar
    case _ => false
  }

  /** t(X) %*% Y with row-aligned X and Y: per-row vectOuterMultAdd into a
    * column-aggregated output (Row variant COL_AGG_B1_T). X is a matrix:
    * t(u) %*% Y with a column vector u is a dot product, not this pattern. */
  def isTransposeLeftMatMul(h: Hop): Boolean = h match {
    case m: MatMulHop => m.left match {
      case t: TransposeHop =>
        t.in.cols > 1 && t.in.rows == m.right.rows && m.right.cols <= MaxNarrow && m.right.rows > 1
      case _ => false
    }
    case _ => false
  }

  /** U %*% t(V) with small common dimension: outer-product-like. */
  def isOuterMatMul(h: Hop): Boolean = h match {
    case m: MatMulHop =>
      m.right.isInstanceOf[TransposeHop] &&
        m.left.cols <= MaxRank && m.rows > m.left.cols && m.cols > m.left.cols
    case _ => false
  }
}

import TemplateType._

/** Cell template: binds to cells X_ij of a main input with side inputs. */
case object CellTpl extends TemplateType {
  val name = "Cell"
  val preference = 1
  val compatible: Set[TemplateType] = Set(CellTpl)

  def open(h: Hop): Boolean = isCellwise(h)

  def fuse(h: Hop, in: Hop): Boolean = h match {
    case _ if isCellwise(h) => true
    case a: AggHop          => a.in eq in // aggregations fuse, then close
    case _                  => false
  }

  def merge(h: Hop, in: Hop): Boolean =
    // a cell chain at an input can merge if it is cell-aligned: same dims,
    // a broadcastable vector, or a scalar side expression
    isCellwise(h) && !in.isScalar

  def close(h: Hop): CloseStatus = h match {
    case _: AggHop => ClosedValid // any aggregation closes a Cell template
    case _         => OpenValid
  }
}

/** Multi-aggregate template: full aggregates, merged across DAG roots with
  * shared inputs at code generation time (e.g., sum(X^2), sum(X*Y), sum(Y^2)). */
case object MAggTpl extends TemplateType {
  val name = "MAgg"
  val preference = 2
  val compatible: Set[TemplateType] = Set(CellTpl)

  def open(h: Hop): Boolean = h match {
    case a: AggHop => a.dir == FullDir && a.in.numCells > 1 &&
      (isCellwise(a.in) || a.in.isInstanceOf[LeafHop])
    case _ => false
  }

  def fuse(h: Hop, in: Hop): Boolean = false // nothing extends above a full agg

  def merge(h: Hop, in: Hop): Boolean = isFullAgg(h) && !in.isScalar

  def close(h: Hop): CloseStatus =
    if (isFullAgg(h)) ClosedValid else ClosedInvalid
}

/** Row template: binds to (sparse or dense) rows of a main input. */
case object RowTpl extends TemplateType {
  val name = "Row"
  val preference = 3
  val compatible: Set[TemplateType] = Set(RowTpl, CellTpl)

  def open(h: Hop): Boolean = h match {
    case _ if isNarrowMatMul(h)        => true
    case _ if isTransposeLeftMatMul(h) => true
    case t: TransposeHop               => t.in.rows > 1 && t.in.cols > 1 // feeds t(X)%*%Y patterns
    case a: AggHop                     => a.dir != FullDir && a.in.numCells > 1
    case _                             => false
  }

  def fuse(h: Hop, in: Hop): Boolean = h match {
    // a transpose chain may only continue into a t(X) %*% Z matmult — any
    // other consumer would need a transposed row layout
    case m: MatMulHop if isTransposeLeftMatMul(h) =>
      // fusing from either the transpose chain or the row-aligned rhs
      (m.left eq in) || (m.right eq in)
    case _ if in.isInstanceOf[TransposeHop] => false
    case _ if isCellwise(h) => true
    // row aggs of any kind; col/full aggs accumulate additively in the skeleton
    case a: AggHop          => a.dir == RowDir || a.func == SumAgg
    case m: MatMulHop if isNarrowMatMul(h) => m.left eq in // rhs becomes a side input
    case _ => false
  }

  def merge(h: Hop, in: Hop): Boolean = h match {
    // matmult rhs side inputs are materialized (vectMatMult reads them
    // whole); only the row-aligned sides may merge
    case m: MatMulHop if isNarrowMatMul(m)        => m.left eq in
    case m: MatMulHop if isTransposeLeftMatMul(m) => (m.left eq in) || (m.right eq in)
    case _: MatMulHop                             => false
    case t: TransposeHop                          => t.in eq in
    // as in `fuse`: only a t(X) %*% Z matmult reads a transpose chain
    case _ if in.isInstanceOf[TransposeHop]       => false
    case _ if isCellwise(h) || h.isInstanceOf[AggHop] => !in.isScalar
    case _ => false
  }

  def close(h: Hop): CloseStatus = h match {
    case a: AggHop if a.dir == ColDir || a.dir == FullDir => ClosedValid
    case _ if isTransposeLeftMatMul(h)                    => ClosedValid // col-agg output
    case _                                                => OpenValid
  }
}

/** Outer template: binds to (non-zero) cells of X in patterns over an
  * outer-product-like U %*% t(V); exploits sparsity of the driver X. */
case object OuterTpl extends TemplateType {
  val name = "Outer"
  val preference = 4
  val compatible: Set[TemplateType] = Set(OuterTpl, CellTpl)

  def open(h: Hop): Boolean = isOuterMatMul(h)

  def fuse(h: Hop, in: Hop): Boolean = h match {
    case b: BinaryHop =>
      // element-wise chains with same dims as the outer product, or scalars
      isCellwise(b) && (b.rows == in.rows && b.cols == in.cols)
    case u: UnaryHop => isCellwise(u)
    case t: TransposeHop => t.in eq in // feeds a closing left_mm
    case m: MatMulHop =>
      // closing matmults: right_mm (chain %*% W) or left_mm (t(chain) %*% W)
      ((m.left eq in) && m.right.cols <= MaxRank && !isOuterMatMul(h)) ||
      ((m.left eq in) && in.isInstanceOf[TransposeHop])
    case a: AggHop => a.dir == FullDir
    case _ => false
  }

  def merge(h: Hop, in: Hop): Boolean =
    isCellwise(h) && !in.isScalar && in.rows == h.rows && in.cols == h.cols

  def close(h: Hop): CloseStatus = h match {
    case a: AggHop if a.dir == FullDir => ClosedValid
    case m: MatMulHop if !isOuterMatMul(m) => ClosedValid // left_mm / right_mm
    case _: AggHop => ClosedInvalid
    case _ => OpenValid
  }
}
