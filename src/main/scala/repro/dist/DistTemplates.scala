package repro.dist

import repro.compiler._
import repro.runtime._

/** Distributed execution of generated fused operators: the main input is a
  * row-blocked [[DistMatrix]]; the compiled skeleton runs once per row
  * block through [[DistOps.mapBlocks]] / [[DistOps.reduceBlocks]], with
  * distributed side inputs joined by row-block index and local side inputs
  * broadcast and sliced per block when row-aligned. Aggregating variants
  * reduce per-block partials at the driver (paper §2.2 local and
  * distributed operations).
  */
object DistTemplates {

  /** Execute a fused operator whose main input is distributed.
    * `datas` is aligned with `cplan.inputs`: Left = distributed,
    * Right = local block. The output shape and the row alignment of each
    * side come from `cplan`; `spoof` only runs per block. Returns Left for
    * block-aligned outputs and Right for aggregated (driver-local) outputs.
    */
  def execute(spoof: SpoofOperator, cplan: CPlan,
              datas: IndexedSeq[Either[DistMatrix, MatrixBlock]]): Either[DistMatrix, MatrixBlock] = {
    val main = datas(0).swap.getOrElse(throw new IllegalArgumentException("main input must be distributed"))
    val sides = datas.indices.tail.map { i =>
      datas(i).fold[BlockSide](DistSide(_), LocalSide(_, rowAligned(cplan, i, main.rows)))
    }
    outputKind(cplan) match {
      case BlockAligned(outCols, outSparsity) =>
        Left(DistOps.mapBlocks(main, sides, outCols, outSparsity)((_, blocks) => spoof.execute(blocks)))
      case ReduceBlocks(outRows, outCols, combine) =>
        Right(DistOps.reduceBlocks(main, sides, outRows, outCols, combine)((_, blocks) => spoof.execute(blocks)))
    }
  }

  /** Is input `idx` row-aligned with the main input's rows (sliced per block)? */
  private def rowAligned(cplan: CPlan, idx: Int, mainRows: Long): Boolean = {
    val h = cplan.inputs(idx)
    cplan.tpe match {
      case OuterTpl =>
        if (idx == 1) true        // U: n x r
        else if (idx == 2) false  // V: m x r
        else if (idx == cplan.wIdx) cplan.outerVariant.contains(OuterLeftMM) // W of t(chain) %*% W: n x k
        else h.rows == mainRows && h.rows > 1
      case _ => h.rows == mainRows && h.rows > 1
    }
  }

  private sealed trait OutKind
  private final case class BlockAligned(cols: Long, sparsity: Double) extends OutKind
  private final case class ReduceBlocks(rows: Int, cols: Int,
                                        combine: (Array[Double], Array[Double]) => Array[Double]) extends OutKind

  private def outputKind(cplan: CPlan): OutKind = {
    val root = cplan.root
    cplan.tpe match {
      case CellTpl => cplan.cellVariant.get match {
        case CellNoAgg     => BlockAligned(root.cols, root.sparsity)
        case CellRowAgg(_) => BlockAligned(1L, 1.0)
        case CellColAgg(f) => ReduceBlocks(1, root.cols.toInt, DistOps.aggCombine(_ => f))
      }
      case MAggTpl => ReduceBlocks(1, cplan.maggFuncs.length, DistOps.aggCombine(cplan.maggFuncs))
      case RowTpl => cplan.rowVariant.get match {
        case RowNoAgg   => BlockAligned(root.cols, 1.0)
        case RowRowAgg  => BlockAligned(1L, 1.0)
        case RowColAgg  => ReduceBlocks(1, root.cols.toInt, DistOps.sumCombine)
        case RowFullAgg => ReduceBlocks(1, 1, DistOps.sumCombine)
        case RowColAggT => ReduceBlocks(root.rows.toInt, root.cols.toInt, DistOps.sumCombine)
      }
      case OuterTpl => cplan.outerVariant.get match {
        case OuterNoAgg   => BlockAligned(root.cols, root.sparsity)
        case OuterRightMM => BlockAligned(root.cols, 1.0)
        case OuterFullAgg => ReduceBlocks(1, 1, DistOps.sumCombine)
        case OuterLeftMM  => ReduceBlocks(root.rows.toInt, root.cols.toInt, DistOps.sumCombine)
      }
    }
  }
}
