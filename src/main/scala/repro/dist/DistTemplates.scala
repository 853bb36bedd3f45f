package repro.dist

import repro.compiler._
import repro.runtime._

/** Distributed execution of generated fused operators: the main input is a
  * row-blocked [[DistMatrix]]; the compiled skeleton runs once per row
  * block through [[DistOps.mapBlocks]] / [[DistOps.reduceBlocks]]. A side
  * the CPlan reads by row is joined by row-block index if distributed, or
  * broadcast and sliced per block; a side it reads whole is broadcast
  * whole, collected first if distributed. Aggregating variants reduce
  * per-block partials at the driver (paper §2.2).
  */
object DistTemplates {

  /** Execute a fused operator whose main input is distributed.
    * `datas` is aligned with `cplan.inputs`: Left = distributed,
    * Right = local block. The output shape and how each side is read come
    * from `cplan`; `spoof` only runs per block. Returns Left for
    * block-aligned outputs and Right for aggregated (driver-local) outputs.
    */
  def execute(spoof: SpoofOperator, cplan: CPlan,
              datas: IndexedSeq[Either[DistMatrix, MatrixBlock]]): Either[DistMatrix, MatrixBlock] = {
    val main = datas(0).swap.getOrElse(throw new IllegalArgumentException("main input must be distributed"))
    val sides = datas.indices.tail.map { i =>
      datas(i) match {
        case Left(dm) if cplan.byRow(i) => DistSide(dm)
        case d                          => LocalSide(d.fold(DistOps.toLocal, identity), cplan.byRow(i))
      }
    }
    outputKind(cplan) match {
      case BlockAligned(outCols, outSparsity) =>
        Left(DistOps.mapBlocks(main, sides, outCols, outSparsity)((_, blocks) => spoof.execute(blocks)))
      case ReduceBlocks(outRows, outCols, combine) =>
        Right(DistOps.reduceBlocks(main, sides, outRows, outCols, combine)((_, blocks) => spoof.execute(blocks)))
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
