package repro.runtime

import java.util.SplittableRandom

/** Local matrix block: the unit of computation for single-node operators
  * and the per-partition payload of distributed matrices.
  *
  * Two physical formats mirror SystemML's block layer:
  *  - [[DenseBlock]]: row-major `Array[Double]`.
  *  - [[SparseBlock]]: CSR (row pointers, column indices, values).
  *
  * A third, compressed format lives in [[CompressedBlock]] (CLA-lite);
  * basic operators decompress it before their kernels run.
  */
trait MatrixBlock extends Serializable {
  def rows: Int
  def cols: Int
  def get(i: Int, j: Int): Double
  def nnz: Long
  final def numCells: Long = rows.toLong * cols.toLong
  final def sparsity: Double = if (numCells == 0) 0.0 else nnz.toDouble / numCells
  def isSparseFormat: Boolean
  def toDense: DenseBlock
  def toSparse: SparseBlock

  /** Copy row i into a caller-provided buffer (ring-buffer row access). */
  def copyRow(i: Int, out: Array[Double]): Unit = {
    var j = 0
    while (j < cols) { out(j) = get(i, j); j += 1 }
  }

  final def isVector: Boolean = rows == 1 || cols == 1

  override def equals(o: Any): Boolean = o match {
    case m: MatrixBlock =>
      m.rows == rows && m.cols == cols && {
        var i = 0
        var eq = true
        while (eq && i < rows) {
          var j = 0
          while (eq && j < cols) { eq = m.get(i, j) == get(i, j); j += 1 }
          i += 1
        }
        eq
      }
    case _ => false
  }
  override def hashCode: Int = rows * 31 + cols

  override def toString: String = {
    val sb = new StringBuilder(s"MatrixBlock(${rows}x$cols, nnz=$nnz, ${if (isSparseFormat) "sparse" else "dense"})")
    if (rows <= 8 && cols <= 8) {
      for (i <- 0 until rows)
        sb.append("\n  ").append((0 until cols).map(j => f"${get(i, j)}%.4f").mkString(" "))
    }
    sb.toString
  }
}

/** Row-major dense block. `values.length == rows * cols`. */
final class DenseBlock(val rows: Int, val cols: Int, val values: Array[Double]) extends MatrixBlock {
  require(values.length == rows.toLong * cols, s"dense storage mismatch: ${values.length} != $rows*$cols")

  def get(i: Int, j: Int): Double = values(i * cols + j)

  lazy val nnz: Long = {
    var c = 0L; var k = 0
    while (k < values.length) { if (values(k) != 0.0) c += 1; k += 1 }
    c
  }
  def isSparseFormat: Boolean = false
  def toDense: DenseBlock = this

  def toSparse: SparseBlock = {
    val rowPtr = new Array[Int](rows + 1)
    var cnt = 0
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { if (values(i * cols + j) != 0.0) cnt += 1; j += 1 }
      rowPtr(i + 1) = cnt
      i += 1
    }
    val colIdx = new Array[Int](cnt)
    val vals = new Array[Double](cnt)
    var p = 0
    i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) {
        val v = values(i * cols + j)
        if (v != 0.0) { colIdx(p) = j; vals(p) = v; p += 1 }
        j += 1
      }
      i += 1
    }
    new SparseBlock(rows, cols, rowPtr, colIdx, vals)
  }

  override def copyRow(i: Int, out: Array[Double]): Unit =
    System.arraycopy(values, i * cols, out, 0, cols)
}

/** CSR sparse block. Non-zeros of row i live in [rowPtr(i), rowPtr(i+1)). */
final class SparseBlock(
    val rows: Int,
    val cols: Int,
    val rowPtr: Array[Int],
    val colIdx: Array[Int],
    val vals: Array[Double],
) extends MatrixBlock {
  require(rowPtr.length == rows + 1, s"CSR rowPtr length ${rowPtr.length} != ${rows + 1}")

  def get(i: Int, j: Int): Double = {
    var p = rowPtr(i)
    val end = rowPtr(i + 1)
    while (p < end) {
      if (colIdx(p) == j) return vals(p)
      p += 1
    }
    0.0
  }

  def nnz: Long = rowPtr(rows).toLong
  def isSparseFormat: Boolean = true
  def toSparse: SparseBlock = this

  def toDense: DenseBlock = {
    val out = new Array[Double](rows * cols)
    var i = 0
    while (i < rows) {
      var p = rowPtr(i)
      val end = rowPtr(i + 1)
      while (p < end) { out(i * cols + colIdx(p)) = vals(p); p += 1 }
      i += 1
    }
    new DenseBlock(rows, cols, out)
  }

  override def copyRow(i: Int, out: Array[Double]): Unit = {
    java.util.Arrays.fill(out, 0.0)
    var p = rowPtr(i)
    val end = rowPtr(i + 1)
    while (p < end) { out(colIdx(p)) = vals(p); p += 1 }
  }
}

object MatrixBlock {

  /** Dense block from a generator function (test/reference helper). */
  def tabulate(rows: Int, cols: Int)(f: (Int, Int) => Double): DenseBlock = {
    val values = new Array[Double](rows * cols)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { values(i * cols + j) = f(i, j); j += 1 }
      i += 1
    }
    new DenseBlock(rows, cols, values)
  }

  def dense(rows: Int, cols: Int, values: Array[Double]): DenseBlock =
    new DenseBlock(rows, cols, values)

  def zeros(rows: Int, cols: Int): DenseBlock =
    new DenseBlock(rows, cols, new Array[Double](rows * cols))

  /** Uniform(min,max) dense or sparse (CSR) random block, deterministic in seed.
    * sparsity < 1 zeroes cells independently with prob 1-sparsity and
    * returns a CSR block (like SystemML's rand with sparsity).
    */
  def rand(rows: Int, cols: Int, sparsity: Double = 1.0, seed: Long = 42,
           min: Double = 0.0, max: Double = 1.0): MatrixBlock = {
    val rng = new SplittableRandom(seed)
    if (sparsity >= 1.0) {
      val a = new Array[Double](rows * cols)
      var k = 0
      while (k < a.length) { a(k) = min + (max - min) * rng.nextDouble(); k += 1 }
      new DenseBlock(rows, cols, a)
    } else {
      val rowPtr = new Array[Int](rows + 1)
      val cb = new scala.collection.mutable.ArrayBuilder.ofInt
      val vb = new scala.collection.mutable.ArrayBuilder.ofDouble
      var cnt = 0
      var i = 0
      while (i < rows) {
        var j = 0
        while (j < cols) {
          if (rng.nextDouble() < sparsity) {
            var v = min + (max - min) * rng.nextDouble()
            if (v == 0.0) v = (max - min) * 1e-12 + 1e-12 // keep declared nnz exact
            cb += j; vb += v; cnt += 1
          }
          j += 1
        }
        rowPtr(i + 1) = cnt
        i += 1
      }
      new SparseBlock(rows, cols, rowPtr, cb.result(), vb.result())
    }
  }

  /** Max absolute element-wise difference (test helper). */
  def maxAbsDiff(a: MatrixBlock, b: MatrixBlock): Double = {
    require(a.rows == b.rows && a.cols == b.cols, s"dims ${a.rows}x${a.cols} vs ${b.rows}x${b.cols}")
    var m = 0.0
    var i = 0
    while (i < a.rows) {
      var j = 0
      while (j < a.cols) {
        val d = math.abs(a.get(i, j) - b.get(i, j))
        if (d > m) m = d
        j += 1
      }
      i += 1
    }
    m
  }
}
