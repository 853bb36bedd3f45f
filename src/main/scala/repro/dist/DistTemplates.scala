package repro.dist

import repro.compiler._
import repro.runtime._
import repro.runtime.Ops._

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
    * Right = local block. Returns Left for block-aligned outputs and
    * Right for aggregated (driver-local) outputs.
    */
  def execute(spoof: SpoofOperator, cplan: CPlan,
              datas: IndexedSeq[Either[DistMatrix, MatrixBlock]]): Either[DistMatrix, MatrixBlock] = {
    val main = datas(0).swap.getOrElse(throw new IllegalArgumentException("main input must be distributed"))
    val sides = datas.indices.tail.map { i =>
      datas(i).fold[BlockSide](DistSide(_), LocalSide(_, rowAligned(spoof, cplan, i, main.rows)))
    }
    outputKind(spoof, cplan) match {
      case BlockAligned(outCols, outSparsity) =>
        Left(DistOps.mapBlocks(main, sides, outCols, outSparsity)((_, blocks) => spoof.execute(blocks)))
      case ReduceBlocks(outRows, outCols, combine) =>
        Right(DistOps.reduceBlocks(main, sides, outRows, outCols, combine)((_, blocks) => spoof.execute(blocks)))
    }
  }

  /** Is input `idx` row-aligned with the main input's rows (sliced per block)? */
  private def rowAligned(spoof: SpoofOperator, cplan: CPlan, idx: Int, mainRows: Long): Boolean = {
    val isWIdx = spoof match {
      case o: SpoofOuterProduct => o.wIdx == idx
      case _                    => false
    }
    val h = cplan.inputs(idx)
    cplan.tpe match {
      case OuterTpl =>
        if (idx == 1) true        // U: n x r
        else if (idx == 2) false  // V: m x r
        else if (cplan.outerVariant.contains(OuterLeftMM) && isWIdx) true
        else if (cplan.outerVariant.contains(OuterRightMM) && isWIdx) false
        else h.rows == mainRows && h.rows > 1
      case _ => h.rows == mainRows && h.rows > 1
    }
  }

  private sealed trait OutKind
  private final case class BlockAligned(cols: Long, sparsity: Double) extends OutKind
  private final case class ReduceBlocks(rows: Int, cols: Int,
                                        combine: (Array[Double], Array[Double]) => Array[Double]) extends OutKind

  private def outputKind(spoof: SpoofOperator, cplan: CPlan): OutKind = spoof match {
    case c: SpoofCellwise => c.agg match {
      case None                  => BlockAligned(cplan.root.cols, cplan.root.sparsity)
      case Some((_, RowDir))     => BlockAligned(1L, 1.0)
      case Some((f, ColDir))     => ReduceBlocks(1, cplan.root.cols.toInt, DistOps.aggCombine(_ => f))
      case Some((f, FullDir))    => ReduceBlocks(1, 1, DistOps.aggCombine(_ => f))
    }
    case m: SpoofMultiAgg => ReduceBlocks(1, m.funcs.length, DistOps.aggCombine(m.funcs))
    case r: SpoofRowwise => r.variant match {
      case RowNoAgg   => BlockAligned(cplan.root.cols, 1.0)
      case RowRowAgg  => BlockAligned(1L, 1.0)
      case RowColAgg  => ReduceBlocks(1, cplan.root.cols.toInt, DistOps.sumCombine)
      case RowFullAgg => ReduceBlocks(1, 1, DistOps.sumCombine)
      case RowColAggT => ReduceBlocks(cplan.root.rows.toInt, cplan.root.cols.toInt, DistOps.sumCombine)
    }
    case o: SpoofOuterProduct => o.variant match {
      case OuterNoAgg   => BlockAligned(cplan.root.cols, cplan.root.sparsity)
      case OuterRightMM => BlockAligned(cplan.root.cols, 1.0)
      case OuterFullAgg => ReduceBlocks(1, 1, DistOps.sumCombine)
      case OuterLeftMM  => ReduceBlocks(cplan.root.rows.toInt, cplan.root.cols.toInt, DistOps.sumCombine)
    }
  }
}
