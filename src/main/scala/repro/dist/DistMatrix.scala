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
  * `transposed` marks a lazy transpose view — only consumable by
  * transpose-aware matrix multiplies (like SystemML's physical operator
  * selection, which never materializes t(X) feeding a matmult).
  * Whoever creates a persisted matrix (see [[DistOps.fromLocal]]) owns it
  * and calls `unpersist` once it is no longer needed; a transposed view
  * shares its source's Dataset and is never released on its own. */
final case class DistMatrix(
    ds: Dataset[BlockRow],
    rows: Long,
    cols: Long,
    blockSize: Int,
    sparsity: Double,
    transposed: Boolean = false,
) {
  def logicalRows: Long = if (transposed) cols else rows
  def logicalCols: Long = if (transposed) rows else cols

  /** Release the cached blocks (non-blocking). */
  def unpersist(): Unit = ds.unpersist()
}

/** Distributed basic operators over Dataset[BlockRow] — the runtime of
  * Base-mode distributed execution. Fused distributed operators live in
  * [[DistTemplates]]. */
object DistOps {

  import org.apache.spark.sql.{Encoder, Encoders}
  val blockRowEnc: Encoder[BlockRow] = Encoders.product[BlockRow]
  val doubleArrEnc: Encoder[Array[Double]] = Encoders.javaSerialization[Array[Double]]
  val tupEnc: Encoder[(Int, BlockRow)] = Encoders.product[(Int, BlockRow)]

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
    require(!dm.transposed, "collecting a transposed view is unsupported; transpose locally")
    val blocks = dm.ds.collect().sortBy(_.rbi).map(_.block).toSeq
    LocalOps.rbind(blocks)
  }

  /** Apply f per row block; new column count must be provided when f
    * changes the shape. Row count per block must be preserved. */
  def mapBlocks(dm: DistMatrix, newCols: Long, newSparsity: Double)(
      f: MatrixBlock => MatrixBlock): DistMatrix = {
    val out = dm.ds.map(br => BlockRow(br.rbi, f(br.block)))(blockRowEnc)
    DistMatrix(out, dm.rows, newCols, dm.blockSize, newSparsity)
  }

  def unary(op: UnaryOp, dm: DistMatrix): DistMatrix =
    mapBlocks(dm, dm.cols, if (op.sparseSafe) dm.sparsity else 1.0)(LocalOps.unary(op, _))

  /** Element-wise op between two row-aligned distributed matrices. */
  def binaryDistDist(op: BinaryOp, a: DistMatrix, b: DistMatrix): DistMatrix = {
    require(a.rows == b.rows, s"row mismatch ${a.rows} vs ${b.rows}")
    val joined = cogroupByRbi(Seq(a.ds, b.ds))
    val out = joined.map { case (rbi, blocks) =>
      BlockRow(rbi, LocalOps.binary(op, blocks(0), blocks(1)))
    }(blockRowEnc)
    DistMatrix(out, a.rows, math.max(a.cols, b.cols), a.blockSize, 1.0)
  }

  /** Element-wise op with a broadcast local rhs: a row vector / scalar is
    * used as-is; a row-aligned matrix or column vector is sliced per block. */
  def binaryDistLocal(op: BinaryOp, a: DistMatrix, b: MatrixBlock): DistMatrix = {
    val sc = a.ds.sparkSession.sparkContext
    val bb = sc.broadcast(b)
    val bs = a.blockSize
    val rowAligned = b.rows == a.rows && b.rows > 1
    val out = a.ds.map { br =>
      val rhs =
        if (rowAligned) LocalOps.rowSlice(bb.value, br.rbi * bs, br.rbi * bs + br.rows)
        else bb.value
      BlockRow(br.rbi, LocalOps.binary(op, br.block, rhs))
    }(blockRowEnc)
    DistMatrix(out, a.rows, a.cols, a.blockSize, 1.0)
  }

  /** Element-wise op with a broadcast local lhs (sliced when row-aligned). */
  def binaryLocalDist(op: BinaryOp, a: MatrixBlock, b: DistMatrix): DistMatrix = {
    val sc = b.ds.sparkSession.sparkContext
    val ba = sc.broadcast(a)
    val bs = b.blockSize
    val rowAligned = a.rows == b.rows && a.rows > 1
    val out = b.ds.map { br =>
      val lhs =
        if (rowAligned) LocalOps.rowSlice(ba.value, br.rbi * bs, br.rbi * bs + br.rows)
        else ba.value
      val res =
        if (lhs.rows == 1 && lhs.cols == 1) LocalOps.binaryScalarLeft(op, lhs.get(0, 0), br.block)
        else LocalOps.binary(op, lhs, br.block)
      BlockRow(br.rbi, res)
    }(blockRowEnc)
    DistMatrix(out, b.rows, math.max(a.cols, b.cols), b.blockSize, 1.0)
  }

  /** scalar op matrix (scalar on the left). */
  def binaryScalarLeft(op: BinaryOp, s: Double, a: DistMatrix): DistMatrix =
    mapBlocks(a, a.cols, 1.0)(LocalOps.binaryScalarLeft(op, s, _))

  /** X %*% W with a broadcast local rhs. */
  def matmulDistLocal(a: DistMatrix, w: MatrixBlock): DistMatrix = {
    require(!a.transposed, "transposed lhs requires matmulTransposeLeft")
    val bb = a.ds.sparkSession.sparkContext.broadcast(w)
    mapBlocks(a, w.cols, 1.0)(blk => LocalOps.matmul(blk, bb.value))
  }

  /** t(X) %*% Z for a transposed view X and row-aligned Z (dist or local):
    * per-block partial products reduced at the driver. */
  def matmulTransposeLeft(x: DistMatrix, z: Either[DistMatrix, MatrixBlock]): MatrixBlock = {
    val bs = x.blockSize
    val partials: Dataset[Array[Double]] = z match {
      case Left(zd) =>
        cogroupByRbi(Seq(x.ds, zd.ds)).map { case (_, blocks) =>
          val p = LocalOps.matmul(LocalOps.transpose(blocks(0)), blocks(1))
          p.values
        }(doubleArrEnc)
      case Right(zl) =>
        val bz = x.ds.sparkSession.sparkContext.broadcast(zl)
        x.ds.map { br =>
          val zBlk = LocalOps.rowSlice(bz.value, br.rbi * bs, br.rbi * bs + br.rows)
          LocalOps.matmul(LocalOps.transpose(br.block), zBlk).values
        }(doubleArrEnc)
    }
    val sum = partials.reduce { (p, q) => VectorPrims.vectAdd(q, p); p }
    val zCols = z.fold(_.cols.toInt, _.cols)
    new DenseBlock(x.cols.toInt, zCols, sum)
  }

  /** Broadcast-left matmul: small local L (k x n) times row-blocked R
    * (n x m): per-block partial products of L's column slice, reduced. */
  def matmulLocalDist(l: MatrixBlock, r: DistMatrix): MatrixBlock = {
    require(l.cols == r.rows, s"matmul dims ${l.rows}x${l.cols} %*% ${r.rows}x${r.cols}")
    val bl = r.ds.sparkSession.sparkContext.broadcast(l)
    val bs = r.blockSize
    val partials = r.ds.map { br =>
      val off = br.rbi * bs
      val lv = bl.value
      val sub = MatrixBlock.tabulate(lv.rows, br.rows)((i, j) => lv.get(i, off + j))
      LocalOps.matmul(sub, br.block).values
    }(doubleArrEnc)
    val sum = partials.reduce { (p, q) => VectorPrims.vectAdd(q, p); p }
    new DenseBlock(l.rows, r.cols.toInt, sum)
  }

  def fullAgg(f: AggFunc, a: DistMatrix): MatrixBlock = {
    val partials = a.ds.map(br => LocalOps.agg(f, FullDir, br.block).get(0, 0))(Encoders.scalaDouble)
    MatrixBlock.dense(1, 1, Array(partials.reduce((x, y) => f(x, y))))
  }

  def colAgg(f: AggFunc, a: DistMatrix): MatrixBlock = {
    val partials = a.ds.map(br => LocalOps.agg(f, ColDir, br.block).toDense.values)(doubleArrEnc)
    val combined = partials.reduce { (p, q) =>
      var i = 0
      while (i < p.length) { p(i) = f(p(i), q(i)); i += 1 }
      p
    }
    new DenseBlock(1, a.cols.toInt, combined)
  }

  def rowAgg(f: AggFunc, a: DistMatrix): DistMatrix =
    mapBlocks(a, 1L, 1.0)(LocalOps.agg(f, RowDir, _))

  /** Align several row-block datasets by rbi (tagged union + groupByKey);
    * blocks come back in the order the datasets were given. */
  def cogroupByRbi(dss: Seq[Dataset[BlockRow]]): Dataset[(Int, IndexedSeq[MatrixBlock])] = {
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
