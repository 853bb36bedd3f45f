package repro.dist

import org.apache.spark.sql.Encoders
import repro.compiler._
import repro.runtime._
import repro.runtime.Ops._

/** Distributed execution of generated fused operators: the main input is a
  * row-blocked [[DistMatrix]]; the compiled skeleton runs per partition
  * block via the Dataset API (`mapGroups` after rbi-alignment of
  * distributed side inputs), with local side inputs broadcast and sliced
  * per block when row-aligned. Aggregating variants reduce per-block
  * partials at the driver (paper §2.2 local and distributed operations).
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
    val mainRows = main.rows
    val blockSize = main.blockSize
    val spark = main.ds.sparkSession
    require(!main.transposed, "fused main input must not be a transposed view")

    // which inputs are row-aligned with the main input's rows
    def rowAligned(idx: Int, h: repro.core.Hop): Boolean = cplan.tpe match {
      case OuterTpl =>
        if (idx == 1) true        // U: n x r
        else if (idx == 2) false  // V: m x r
        else if (cplan.outerVariant.contains(OuterLeftMM) && isWIdx(idx)) true
        else if (cplan.outerVariant.contains(OuterRightMM) && isWIdx(idx)) false
        else h.rows == mainRows && h.rows > 1
      case _ => h.rows == mainRows && h.rows > 1
    }
    def isWIdx(idx: Int): Boolean = spoof match {
      case o: SpoofOuterProduct => o.wIdx == idx
      case _                    => false
    }

    val distIdx = datas.zipWithIndex.collect { case (Left(_), i) if i > 0 => i }
    val localBlocks = datas.zipWithIndex.collect { case (Right(b), i) => i -> b }.toMap
    val bcLocals = spark.sparkContext.broadcast(localBlocks)
    val alignedFlags = cplan.inputs.zipWithIndex.map { case (h, i) => rowAligned(i, h) }

    // no distributed sides -> plain map over the main blocks (no shuffle)
    val grouped =
      if (distIdx.isEmpty)
        main.ds.map(br => (br.rbi, IndexedSeq(br.block)))(
          org.apache.spark.sql.Encoders.javaSerialization[(Int, IndexedSeq[MatrixBlock])])
      else DistOps.cogroupByRbi(main.ds +: distIdx.map(i => datas(i).swap.toOption.get.ds))
    val nInputs = cplan.inputs.length
    val distPos = distIdx.zipWithIndex.map { case (inputIdx, k) => inputIdx -> (k + 1) }.toMap

    def assemble(rbi: Int, blocks: IndexedSeq[MatrixBlock]): IndexedSeq[MatrixBlock] = {
      val off = rbi * blockSize
      val nRows = blocks(0).rows
      (0 until nInputs).map { i =>
        if (i == 0) blocks(0)
        else distPos.get(i) match {
          case Some(p) => blocks(p)
          case None =>
            val b = bcLocals.value(i)
            if (alignedFlags(i)) LocalOps.rowSlice(b, off, off + nRows) else b
        }
      }
    }

    outputKind(spoof, cplan) match {
      case BlockAligned(outCols, outSparsity) =>
        val out = grouped.map { case (rbi, blocks) =>
          BlockRow(rbi, spoof.execute(assemble(rbi, blocks)))
        }(DistOps.blockRowEnc)
        Left(DistMatrix(out, mainRows, outCols, blockSize, outSparsity))
      case ReduceBlocks(outRows, outCols, combine) =>
        val partials = grouped.map { case (rbi, blocks) =>
          spoof.execute(assemble(rbi, blocks)).toDense.values
        }(DistOps.doubleArrEnc)
        val res = partials.reduce(combine)
        Right(new DenseBlock(outRows, outCols, res))
    }
  }

  private sealed trait OutKind
  private final case class BlockAligned(cols: Long, sparsity: Double) extends OutKind
  private final case class ReduceBlocks(rows: Int, cols: Int,
                                        combine: (Array[Double], Array[Double]) => Array[Double]) extends OutKind

  private def sumCombine: (Array[Double], Array[Double]) => Array[Double] =
    (p, q) => { VectorPrims.vectAdd(q, p); p }

  private def funcCombine(f: AggFunc): (Array[Double], Array[Double]) => Array[Double] =
    (p, q) => {
      var i = 0
      while (i < p.length) { p(i) = f(p(i), q(i)); i += 1 }
      p
    }

  private def outputKind(spoof: SpoofOperator, cplan: CPlan): OutKind = spoof match {
    case c: SpoofCellwise => c.agg match {
      case None                  => BlockAligned(cplan.root.cols, cplan.root.sparsity)
      case Some((_, RowDir))     => BlockAligned(1L, 1.0)
      case Some((f, ColDir))     => ReduceBlocks(1, cplan.root.cols.toInt, funcCombine(f))
      case Some((f, FullDir))    => ReduceBlocks(1, 1, funcCombine(f))
    }
    case m: SpoofMultiAgg =>
      ReduceBlocks(1, m.funcs.length, (p, q) => {
        var i = 0
        while (i < p.length) { p(i) = m.funcs(i)(p(i), q(i)); i += 1 }
        p
      })
    case r: SpoofRowwise => r.variant match {
      case RowNoAgg   => BlockAligned(cplan.root.cols, 1.0)
      case RowRowAgg  => BlockAligned(1L, 1.0)
      case RowColAgg  => ReduceBlocks(1, cplan.root.cols.toInt, sumCombine)
      case RowFullAgg => ReduceBlocks(1, 1, sumCombine)
      case RowColAggT => ReduceBlocks(cplan.root.rows.toInt, cplan.root.cols.toInt, sumCombine)
    }
    case o: SpoofOuterProduct => o.variant match {
      case OuterNoAgg   => BlockAligned(cplan.root.cols, cplan.root.sparsity)
      case OuterRightMM => BlockAligned(cplan.root.cols, 1.0)
      case OuterFullAgg => ReduceBlocks(1, 1, sumCombine)
      case OuterLeftMM  => ReduceBlocks(cplan.root.rows.toInt, cplan.root.cols.toInt, sumCombine)
    }
  }
}
