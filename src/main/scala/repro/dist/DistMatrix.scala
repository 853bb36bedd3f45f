package repro.dist

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.runtime._
import repro.runtime.Ops._

/** One row-block of a distributed matrix, encodable as a Spark SQL Dataset
  * row (product encoder: primitive + array fields only). Row-blocking with
  * a single column block mirrors the common shape of SystemML's binary
  * block matrices for tall-and-skinny ML inputs; the B_c constraint on
  * distributed Row templates (paper §4.1) corresponds to "ncol fits one
  * block".
  */
final case class BlockRow(
    rbi: Int,
    rows: Int,
    cols: Int,
    sparse: Boolean,
    values: Array[Double],
    rowPtr: Array[Int],
    colIdx: Array[Int],
) {
  def block: MatrixBlock =
    if (sparse) new SparseBlock(rows, cols, rowPtr, colIdx, values)
    else new DenseBlock(rows, cols, values)
}

object BlockRow {
  def apply(rbi: Int, b: MatrixBlock): BlockRow = b match {
    case s: SparseBlock => BlockRow(rbi, s.rows, s.cols, sparse = true, s.vals, s.rowPtr, s.colIdx)
    case b              => val d = b.toDense; BlockRow(rbi, d.rows, d.cols, sparse = false, d.values, Array.emptyIntArray, Array.emptyIntArray)
  }
}

/** Distributed matrix: a Dataset of row blocks plus logical metadata.
  * Whoever creates a persisted matrix (see [[DistOps.fromLocal]]) owns it
  * and calls `unpersist` once it is no longer needed. */
final case class DistMatrix(
    ds: Dataset[BlockRow],
    rows: Long,
    cols: Long,
    blockSize: Int,
    sparsity: Double,
) {
  /** Release the cached blocks (non-blocking). */
  def unpersist(): Unit = ds.unpersist()
}

/** A side input of a per-row-block operator ([[DistOps.mapBlocks]],
  * [[DistOps.reduceBlocks]]). */
sealed trait BlockSide
/** A distributed matrix with the main input's row blocking, joined to it
  * by row-block index. */
final case class DistSide(dm: DistMatrix) extends BlockSide
/** A local block, broadcast once; sliced to each main block's rows when
  * `rowAligned`, passed whole otherwise. */
final case class LocalSide(b: MatrixBlock, rowAligned: Boolean) extends BlockSide
object BlockSide {
  /** How an operator reads side `d`: by row of the main input, joined by
    * row-block index if distributed or sliced per block if local; whole,
    * broadcast whole, collected to the driver first if distributed. */
  def apply(d: Either[DistMatrix, MatrixBlock], byRow: Boolean): BlockSide = d match {
    case Left(dm) if byRow => DistSide(dm)
    case _                 => LocalSide(d.fold(DistOps.toLocal, identity), byRow)
  }
}

/** Distributed operators over Dataset[BlockRow]. Every operator, basic or
  * fused ([[DistTemplates]], [[repro.compiler.HandCoded]]), runs a local
  * kernel once per row block of its main input through [[mapBlocks]]
  * (row-block-aligned output) or [[reduceBlocks]] (per-block partials
  * combined at the driver in row-block order, as SystemML aggregates
  * block partials by block index), as in paper §2.2. */
object DistOps {

  import org.apache.spark.sql.{Encoder, Encoders}
  private val blockRowEnc: Encoder[BlockRow] = Encoders.product[BlockRow]
  private val partialEnc: Encoder[(Int, Array[Double])] = Encoders.javaSerialization[(Int, Array[Double])]
  private val tupEnc: Encoder[(Int, BlockRow)] = Encoders.product[(Int, BlockRow)]

  /** Reblock a driver-local matrix into a persisted Dataset, the
    * counterpart of SystemML's checkpoint after reblock: every later
    * action scans the cached blocks instead of re-shipping the driver's
    * copy and re-running the repartition shuffle. The caller owns the
    * result and releases it with [[DistMatrix.unpersist]]. */
  def fromLocal(spark: SparkSession, m: MatrixBlock, blockSize: Int): DistMatrix = {
    val nBlocks = ((m.rows + blockSize - 1) / blockSize).toInt
    val blocks = (0 until nBlocks).map { rbi =>
      val from = rbi * blockSize
      val to = math.min(m.rows, from + blockSize)
      BlockRow(rbi, LocalOps.rowSlice(m, from.toInt, to.toInt))
    }
    DistMatrix(spark.createDataset(blocks)(blockRowEnc).repartition(math.min(nBlocks, 64)).persist(),
      m.rows, m.cols, blockSize, m.sparsity)
  }

  def toLocal(dm: DistMatrix): MatrixBlock = {
    val blocks = dm.ds.collect().sortBy(_.rbi).map(_.block).toSeq
    LocalOps.rbind(blocks)
  }

  /** The matrix with `main`'s row blocking whose block at row offset `off`
    * is `f(off, blocks)`; `blocks` holds the main block and then one block
    * per side, in order. `f` must keep the block's row count. */
  def mapBlocks(main: DistMatrix, sides: Seq[BlockSide], cols: Long, sparsity: Double)(
      f: (Int, IndexedSeq[MatrixBlock]) => MatrixBlock): DistMatrix = {
    val bs = main.blockSize
    val out = perBlock(main, sides, blockRowEnc)((rbi, blocks) => BlockRow(rbi, f(rbi * bs, blocks)))
    DistMatrix(out, main.rows, cols, bs, sparsity)
  }

  /** `f` as in [[mapBlocks]], each result a `rows x cols` partial; the
    * partials are collected with their row-block index and combined at
    * the driver position by position, position `i` with `funcs(i)`, in
    * row-block order ([[RowRanges.combine]]), so the result does not
    * depend on which task finished first. `rdd.collect` returns them as
    * task results, which allocated about 5 % less than `Dataset.collect`
    * per `dist-scan` pass. */
  def reduceBlocks(main: DistMatrix, sides: Seq[BlockSide], rows: Int, cols: Int, funcs: Int => AggFunc)(
      f: (Int, IndexedSeq[MatrixBlock]) => MatrixBlock): MatrixBlock = {
    val bs = main.blockSize
    val partials = perBlock(main, sides, partialEnc)((rbi, blocks) => (rbi, f(rbi * bs, blocks).toDense.values))
    new DenseBlock(rows, cols, RowRanges.combine(partials.rdd.collect().sortBy(_._1).map(_._2).toIndexedSeq, funcs))
  }

  /** Runs `f(rbi, blocks)` once per row block of `main`: a plain map when
    * no side is distributed, a cogroup by row-block index otherwise; the
    * local sides are broadcast together, once, and only if there are any. */
  private def perBlock[T](main: DistMatrix, sides: Seq[BlockSide], enc: Encoder[T])(
      f: (Int, IndexedSeq[MatrixBlock]) => T): Dataset[T] = {
    val bs = main.blockSize
    val dist = sides.collect { case DistSide(dm) => dm.ds }
    val local = sides.collect { case LocalSide(b, _) => b }.toIndexedSeq
    val bc = if (local.isEmpty) None else Some(main.ds.sparkSession.sparkContext.broadcast(local))
    // per side: Left(index among the cogrouped blocks) or Right((index among the broadcast blocks, rowAligned))
    var nDist, nLocal = 0
    val slots: IndexedSeq[Either[Int, (Int, Boolean)]] = sides.toIndexedSeq.map {
      case DistSide(_)              => nDist += 1; Left(nDist)
      case LocalSide(_, rowAligned) => nLocal += 1; Right((nLocal - 1, rowAligned))
    }
    def assemble(rbi: Int, joined: IndexedSeq[MatrixBlock]): IndexedSeq[MatrixBlock] = {
      val off = rbi * bs
      val rows = joined(0).rows
      joined(0) +: slots.map {
        case Left(j) => joined(j)
        case Right((k, rowAligned)) =>
          val b = bc.get.value(k)
          if (rowAligned) LocalOps.rowSlice(b, off, off + rows) else b
      }
    }
    if (dist.isEmpty) main.ds.map(br => f(br.rbi, assemble(br.rbi, IndexedSeq(br.block))))(enc)
    else cogroupByRbi(main.ds +: dist).map { case (rbi, joined) => f(rbi, assemble(rbi, joined)) }(enc)
  }

  def unary(op: UnaryOp, dm: DistMatrix): DistMatrix =
    mapBlocks(dm, Nil, dm.cols, if (op.sparseSafe) dm.sparsity else 1.0)((_, b) => LocalOps.unary(op, b(0)))

  /** Element-wise op between two row-aligned distributed matrices. */
  def binaryDistDist(op: BinaryOp, a: DistMatrix, b: DistMatrix): DistMatrix = {
    require(a.rows == b.rows, s"row mismatch ${a.rows} vs ${b.rows}")
    mapBlocks(a, Seq(DistSide(b)), math.max(a.cols, b.cols), 1.0)((_, bl) => LocalOps.binary(op, bl(0), bl(1)))
  }

  /** Element-wise op with a broadcast local rhs: a row vector / scalar is
    * used as-is; a row-aligned matrix or column vector is sliced per block. */
  def binaryDistLocal(op: BinaryOp, a: DistMatrix, b: MatrixBlock): DistMatrix =
    mapBlocks(a, Seq(LocalSide(b, b.rows == a.rows && b.rows > 1)), a.cols, 1.0)(
      (_, bl) => LocalOps.binary(op, bl(0), bl(1)))

  /** Element-wise op with a broadcast local lhs (sliced when row-aligned). */
  def binaryLocalDist(op: BinaryOp, a: MatrixBlock, b: DistMatrix): DistMatrix =
    mapBlocks(b, Seq(LocalSide(a, a.rows == b.rows && a.rows > 1)), math.max(a.cols, b.cols), 1.0) { (_, bl) =>
      val lhs = bl(1)
      if (lhs.rows == 1 && lhs.cols == 1) LocalOps.binaryScalarLeft(op, lhs.get(0, 0), bl(0))
      else LocalOps.binary(op, lhs, bl(0))
    }

  /** scalar op matrix (scalar on the left). */
  def binaryScalarLeft(op: BinaryOp, s: Double, a: DistMatrix): DistMatrix =
    mapBlocks(a, Nil, a.cols, 1.0)((_, b) => LocalOps.binaryScalarLeft(op, s, b(0)))

  /** X %*% W with a broadcast local rhs. */
  def matmulDistLocal(a: DistMatrix, w: MatrixBlock): DistMatrix =
    mapBlocks(a, Seq(LocalSide(w, rowAligned = false)), w.cols, 1.0)((_, b) => LocalOps.matmul(b(0), b(1)))

  /** t(Y) %*% Z for row-aligned Y and Z, at least one distributed, in one
    * pass over the distributed one's row blocks (Y's if both are), the
    * other joined or sliced per block: per-block partial products reduced
    * at the driver, with no transposed copy of Y. */
  def matmulTransposeLeft(y: Either[DistMatrix, MatrixBlock], z: Either[DistMatrix, MatrixBlock]): MatrixBlock = {
    def cols(x: Either[DistMatrix, MatrixBlock]): Int = x.fold(_.cols.toInt, _.cols)
    def side(x: Either[DistMatrix, MatrixBlock]): BlockSide = BlockSide(x, byRow = true)
    (y, z) match {
      case (Left(main), _) =>
        reduceBlocks(main, Seq(side(z)), cols(y), cols(z), _ => SumAgg)((_, b) => LocalOps.matmulTransposeLeft(b(0), b(1)))
      case (_, Left(main)) =>
        reduceBlocks(main, Seq(side(y)), cols(y), cols(z), _ => SumAgg)((_, b) => LocalOps.matmulTransposeLeft(b(1), b(0)))
      case _ => throw new IllegalArgumentException("t(Y) %*% Z of two local blocks: use LocalOps.matmulTransposeLeft")
    }
  }

  /** Broadcast-left matmul: small local L (k x n) times row-blocked R
    * (n x m): per-block partial products of L's column slice, reduced. */
  def matmulLocalDist(l: MatrixBlock, r: DistMatrix): MatrixBlock = {
    require(l.cols == r.rows, s"matmul dims ${l.rows}x${l.cols} %*% ${r.rows}x${r.cols}")
    reduceBlocks(r, Seq(LocalSide(l, rowAligned = false)), l.rows, r.cols.toInt, _ => SumAgg) { (off, b) =>
      val lv = b(1)
      val sub = MatrixBlock.tabulate(lv.rows, b(0).rows)((i, j) => lv.get(i, off + j))
      LocalOps.matmul(sub, b(0))
    }
  }

  /** t(X) with t(X)'s own row blocking, SystemML's reblocking transpose
    * `r'`: each block of X is transposed and cut along the row blocks of
    * t(X); one shuffle brings the pieces of a block of t(X) together, side
    * by side in the order of X's blocks, in X's block format. */
  def transpose(dm: DistMatrix): DistMatrix = {
    val bs = dm.blockSize
    val pieces = dm.ds.flatMap { br =>
      val t = LocalOps.transpose(br.block)
      (0 until t.rows by bs).map(from => (br.rbi, BlockRow(from / bs, LocalOps.rowSlice(t, from, math.min(t.rows, from + bs)))))
    }(tupEnc)
    val blocks = pieces.groupByKey(_._2.rbi)(Encoders.scalaInt).mapGroups { (rbi, it) =>
      val sorted = it.toSeq.sortBy(_._1).map(_._2)
      val b = LocalOps.transpose(LocalOps.rbind(sorted.map(p => LocalOps.transpose(p.block))))
      BlockRow(rbi, if (sorted.head.sparse) b.toSparse else b)
    }(blockRowEnc)
    DistMatrix(blocks, dm.cols, dm.rows, bs, dm.sparsity)
  }

  def fullAgg(f: AggFunc, a: DistMatrix): MatrixBlock =
    reduceBlocks(a, Nil, 1, 1, _ => f)((_, b) => LocalOps.agg(f, FullDir, b(0)))

  def colAgg(f: AggFunc, a: DistMatrix): MatrixBlock =
    reduceBlocks(a, Nil, 1, a.cols.toInt, _ => f)((_, b) => LocalOps.agg(f, ColDir, b(0)))

  def rowAgg(f: AggFunc, a: DistMatrix): DistMatrix =
    mapBlocks(a, Nil, 1L, 1.0)((_, b) => LocalOps.agg(f, RowDir, b(0)))

  /** Align several row-block datasets by rbi (tagged union + groupByKey);
    * blocks come back in the order the datasets were given. */
  private def cogroupByRbi(dss: Seq[Dataset[BlockRow]]): Dataset[(Int, IndexedSeq[MatrixBlock])] = {
    val tagged = dss.zipWithIndex.map { case (ds, tag) =>
      ds.map(br => (tag, br))(tupEnc)
    }.reduce(_ union _)
    val outEnc: Encoder[(Int, IndexedSeq[MatrixBlock])] =
      Encoders.javaSerialization[(Int, IndexedSeq[MatrixBlock])]
    tagged.groupByKey(_._2.rbi)(Encoders.scalaInt).mapGroups { (rbi, it) =>
      val arr = it.toSeq.sortBy(_._1).map(_._2.block).toIndexedSeq
      (rbi, arr)
    }(outEnc)
  }
}
