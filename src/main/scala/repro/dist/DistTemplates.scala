package repro.dist

import repro.compiler._
import repro.runtime._

/** Distributed execution of generated fused operators: the main input is a
  * row-blocked [[DistMatrix]]; the compiled skeleton runs once per row
  * block, as it runs once per row range locally, through
  * [[DistOps.mapBlocks]] for a row-aligned [[CPlan.output]] and
  * [[DistOps.reduceBlocks]] for an aggregate, whose per-block partials
  * combine at the driver in row-block order (paper §2.2). A side the
  * CPlan reads by row is joined by row-block index if distributed, or
  * broadcast and sliced per block; a side it reads whole is broadcast
  * whole, collected first if distributed.
  */
object DistTemplates {

  /** Execute a fused operator whose main input is distributed.
    * `datas` is aligned with `cplan.inputs`: Left = distributed,
    * Right = local block. The output and how each side is read come from
    * `cplan`; `spoof` only runs per block. Returns Left for a row-aligned
    * output and Right for an aggregate (driver-local).
    */
  def execute(spoof: SpoofOperator, cplan: CPlan,
              datas: IndexedSeq[Either[DistMatrix, MatrixBlock]]): Either[DistMatrix, MatrixBlock] = {
    val main = datas(0).swap.getOrElse(throw new IllegalArgumentException("main input must be distributed"))
    val sides = datas.indices.tail.map(i => BlockSide(datas(i), cplan.byRow(i)))
    cplan.output match {
      case RowAligned(cols, sparsity) =>
        Left(DistOps.mapBlocks(main, sides, cols, sparsity)((_, blocks) => spoof.execute(blocks)))
      case Aggregate(rows, cols, funcs) =>
        Right(DistOps.reduceBlocks(main, sides, rows, cols, funcs)((_, blocks) => spoof.execute(blocks)))
    }
  }
}
