package repro.runtime

import Ops._

/** Basic (unfused) local operator kernels — the runtime of the "Base"
  * execution mode, and the building blocks every fused operator is tested
  * against. Each op fully materializes its output.
  *
  * Binary ops support SystemML-style shape broadcasting: equal dims,
  * column vector (n x 1) against matrix rows, row vector (1 x m) against
  * matrix columns, and 1 x 1 scalars.
  */
object LocalOps {

  def unary(op: UnaryOp, m: MatrixBlock): MatrixBlock = m match {
    case s: SparseBlock if op.sparseSafe =>
      val vals = new Array[Double](s.vals.length)
      var k = 0
      while (k < vals.length) { vals(k) = op(s.vals(k)); k += 1 }
      new SparseBlock(s.rows, s.cols, s.rowPtr, s.colIdx, vals)
    case _ =>
      val d = m.toDense
      val out = new Array[Double](d.values.length)
      var k = 0
      while (k < out.length) { out(k) = op(d.values(k)); k += 1 }
      new DenseBlock(m.rows, m.cols, out)
  }

  /** Broadcast side of a binary op. */
  sealed trait BSide
  case object SameDims  extends BSide
  case object ColVector extends BSide
  case object RowVector extends BSide
  case object Scalar    extends BSide

  /** How the right operand of shape (br x bc) broadcasts against (ar x ac). */
  def broadcastSide(ar: Long, ac: Long, br: Long, bc: Long): BSide =
    if (br == 1 && bc == 1 && !(ar == 1 && ac == 1)) Scalar
    else if (br == ar && bc == ac) SameDims
    else if (br == ar && bc == 1) ColVector
    else if (br == 1 && bc == ac) RowVector
    else throw new IllegalArgumentException(s"incompatible binary dims: ${ar}x$ac vs ${br}x$bc")

  def binary(op: BinaryOp, a: MatrixBlock, b: MatrixBlock): MatrixBlock =
    broadcastSide(a.rows, a.cols, b.rows, b.cols) match {
      case Scalar    => binaryScalarRight(op, a, b.get(0, 0))
      case SameDims  => binarySame(op, a, b)
      case ColVector => binaryBroadcast(op, a, b, perRow = true)
      case RowVector => binaryBroadcast(op, a, b, perRow = false)
    }

  private def binarySame(op: BinaryOp, a: MatrixBlock, b: MatrixBlock): MatrixBlock =
    (a, b) match {
      // sparse-driver fast path: iterate non-zeros of the sparse side only
      case (s: SparseBlock, _) if op.sparseSafeLeft =>
        val vals = new Array[Double](s.vals.length)
        var i = 0
        while (i < s.rows) {
          var p = s.rowPtr(i)
          while (p < s.rowPtr(i + 1)) { vals(p) = op(s.vals(p), b.get(i, s.colIdx(p))); p += 1 }
          i += 1
        }
        new SparseBlock(s.rows, s.cols, s.rowPtr, s.colIdx, vals)
      case (_, s: SparseBlock) if op.sparseSafeRight && !a.isSparseFormat =>
        val vals = new Array[Double](s.vals.length)
        var i = 0
        while (i < s.rows) {
          var p = s.rowPtr(i)
          while (p < s.rowPtr(i + 1)) { vals(p) = op(a.get(i, s.colIdx(p)), s.vals(p)); p += 1 }
          i += 1
        }
        new SparseBlock(s.rows, s.cols, s.rowPtr, s.colIdx, vals)
      case _ =>
        val da = a.toDense.values
        val db = b.toDense.values
        val out = new Array[Double](da.length)
        var k = 0
        while (k < out.length) { out(k) = op(da(k), db(k)); k += 1 }
        new DenseBlock(a.rows, a.cols, out)
    }

  private def binaryBroadcast(op: BinaryOp, a: MatrixBlock, b: MatrixBlock, perRow: Boolean): MatrixBlock = {
    val da = a.toDense.values
    val cols = a.cols
    val out = new Array[Double](da.length)
    if (perRow) { // b is n x 1
      var i = 0
      while (i < a.rows) {
        val bv = b.get(i, 0)
        var j = 0
        while (j < cols) { out(i * cols + j) = op(da(i * cols + j), bv); j += 1 }
        i += 1
      }
    } else { // b is 1 x m
      val bv = b.toDense.values
      var i = 0
      while (i < a.rows) {
        var j = 0
        while (j < cols) { out(i * cols + j) = op(da(i * cols + j), bv(j)); j += 1 }
        i += 1
      }
    }
    new DenseBlock(a.rows, a.cols, out)
  }

  def binaryScalarRight(op: BinaryOp, a: MatrixBlock, s: Double): MatrixBlock = a match {
    case sp: SparseBlock if op.sparseSafeLeft || op(0.0, s) == 0.0 =>
      val vals = new Array[Double](sp.vals.length)
      var k = 0
      while (k < vals.length) { vals(k) = op(sp.vals(k), s); k += 1 }
      new SparseBlock(sp.rows, sp.cols, sp.rowPtr, sp.colIdx, vals)
    case _ =>
      val da = a.toDense.values
      val out = new Array[Double](da.length)
      var k = 0
      while (k < out.length) { out(k) = op(da(k), s); k += 1 }
      new DenseBlock(a.rows, a.cols, out)
  }

  def binaryScalarLeft(op: BinaryOp, s: Double, a: MatrixBlock): MatrixBlock = a match {
    case sp: SparseBlock if op(s, 0.0) == 0.0 =>
      val vals = new Array[Double](sp.vals.length)
      var k = 0
      while (k < vals.length) { vals(k) = op(s, sp.vals(k)); k += 1 }
      new SparseBlock(sp.rows, sp.cols, sp.rowPtr, sp.colIdx, vals)
    case _ =>
      val da = a.toDense.values
      val out = new Array[Double](da.length)
      var k = 0
      while (k < out.length) { out(k) = op(s, da(k)); k += 1 }
      new DenseBlock(a.rows, a.cols, out)
  }

  /** Matrix multiply a (n x k) times b (k x m), over row ranges of a.
    * Dense output. */
  def matmul(a: MatrixBlock, b: MatrixBlock): DenseBlock = {
    require(a.cols == b.rows, s"matmul dims: ${a.rows}x${a.cols} %*% ${b.rows}x${b.cols}")
    val n = a.rows; val k = a.cols; val m = b.cols
    val out = new Array[Double](n * m)
    (a, b) match {
      case (ad: DenseBlock, bd: DenseBlock) =>
        val av = ad.values; val bv = bd.values
        RowRanges.foreach(n, ad.numCells * m) { (rl, ru) =>
          var i = rl
          while (i < ru) {
            var j = 0
            while (j < k) {
              val aij = av(i * k + j)
              if (aij != 0.0) {
                val boff = j * m; val coff = i * m
                var c = 0
                while (c < m) { out(coff + c) += aij * bv(boff + c); c += 1 }
              }
              j += 1
            }
            i += 1
          }
        }
      case (as: SparseBlock, _) =>
        val bv = b.toDense.values
        RowRanges.foreach(n, as.nnz * m) { (rl, ru) =>
          var i = rl
          while (i < ru) {
            var p = as.rowPtr(i)
            val coff = i * m
            while (p < as.rowPtr(i + 1)) {
              val aij = as.vals(p); val boff = as.colIdx(p) * m
              var c = 0
              while (c < m) { out(coff + c) += aij * bv(boff + c); c += 1 }
              p += 1
            }
            i += 1
          }
        }
      case (ad: DenseBlock, bs: SparseBlock) =>
        val av = ad.values
        RowRanges.foreach(n, n * bs.nnz) { (rl, ru) =>
          var i = rl
          while (i < ru) {
            var j = 0
            while (j < k) {
              val aij = av(i * k + j)
              if (aij != 0.0) {
                var p = bs.rowPtr(j)
                while (p < bs.rowPtr(j + 1)) { out(i * m + bs.colIdx(p)) += aij * bs.vals(p); p += 1 }
              }
              j += 1
            }
            i += 1
          }
        }
    }
    new DenseBlock(n, m, out)
  }

  /** t(y) %*% z for y (n x k) and z (n x m), reading y's rows in place:
    * out(j, :) += y(i, j) * z(i, :), one k x m partial per row range of y,
    * added in range order. Dense output. */
  def matmulTransposeLeft(y: MatrixBlock, z: MatrixBlock): DenseBlock = {
    require(y.rows == z.rows, s"matmul dims: t(${y.rows}x${y.cols}) %*% ${z.rows}x${z.cols}")
    val k = y.cols; val m = z.cols
    val ys = y match { case s: SparseBlock => s; case _ => null }
    val yv = if (ys == null) y.toDense.values else null
    val zs = z match { case s: SparseBlock => s; case _ => null }
    val zv = if (zs == null) z.toDense.values else null
    /** out(j, :) += yij * z(i, :) */
    def addRow(out: Array[Double], yij: Double, i: Int, j: Int): Unit =
      if (zs == null) VectorPrims.vectMultAdd(zv, yij, out, i * m, j * m, m)
      else {
        val p = zs.rowPtr(i)
        VectorPrims.vectMultAdd(zs.vals, yij, out, zs.colIdx, p, j * m, zs.rowPtr(i + 1) - p)
      }
    val work = (if (ys == null) y.numCells else ys.nnz) * m
    RowRanges.fill(y.rows, work, Aggregate(k, m, _ => SumAgg)) { (rl, ru, out) =>
      var i = rl
      while (i < ru) {
        if (ys == null) {
          var j = 0
          while (j < k) { val yij = yv(i * k + j); if (yij != 0.0) addRow(out, yij, i, j); j += 1 }
        } else {
          var p = ys.rowPtr(i)
          while (p < ys.rowPtr(i + 1)) { addRow(out, ys.vals(p), i, ys.colIdx(p)); p += 1 }
        }
        i += 1
      }
    }
  }

  def transpose(a: MatrixBlock): MatrixBlock = a match {
    case s: SparseBlock =>
      // CSR transpose via column counting (classic CSR->CSC-as-CSR).
      val tRowPtr = new Array[Int](s.cols + 1)
      var p = 0
      while (p < s.vals.length) { tRowPtr(s.colIdx(p) + 1) += 1; p += 1 }
      var j = 0
      while (j < s.cols) { tRowPtr(j + 1) += tRowPtr(j); j += 1 }
      val cur = java.util.Arrays.copyOf(tRowPtr, s.cols)
      val tColIdx = new Array[Int](s.vals.length)
      val tVals = new Array[Double](s.vals.length)
      var i = 0
      while (i < s.rows) {
        var q = s.rowPtr(i)
        while (q < s.rowPtr(i + 1)) {
          val c = s.colIdx(q)
          tColIdx(cur(c)) = i
          tVals(cur(c)) = s.vals(q)
          cur(c) += 1
          q += 1
        }
        i += 1
      }
      new SparseBlock(s.cols, s.rows, tRowPtr, tColIdx, tVals)
    case d: DenseBlock =>
      val out = new Array[Double](d.values.length)
      var i = 0
      while (i < d.rows) {
        var j = 0
        while (j < d.cols) { out(j * d.rows + i) = d.values(i * d.cols + j); j += 1 }
        i += 1
      }
      new DenseBlock(d.cols, d.rows, out)
  }

  def agg(f: AggFunc, dir: AggDir, m: MatrixBlock): MatrixBlock = dir match {
    case FullDir =>
      var acc = f.init
      m match {
        case s: SparseBlock if f == SumAgg =>
          var k = 0
          while (k < s.vals.length) { acc += s.vals(k); k += 1 }
        case s: SparseBlock =>
          // min/max must observe implicit zeros
          var k = 0
          while (k < s.vals.length) { acc = f(acc, s.vals(k)); k += 1 }
          if (s.nnz < s.numCells) acc = f(acc, 0.0)
        case d: DenseBlock =>
          var k = 0
          while (k < d.values.length) { acc = f(acc, d.values(k)); k += 1 }
      }
      MatrixBlock.dense(1, 1, Array(acc))
    case RowDir =>
      val out = new Array[Double](m.rows)
      m match {
        case s: SparseBlock =>
          var i = 0
          while (i < m.rows) {
            var acc = f.init
            var p = s.rowPtr(i)
            while (p < s.rowPtr(i + 1)) { acc = f(acc, s.vals(p)); p += 1 }
            if (f != SumAgg && s.rowPtr(i + 1) - s.rowPtr(i) < s.cols) acc = f(acc, 0.0)
            out(i) = acc
            i += 1
          }
        case d: DenseBlock =>
          var i = 0
          while (i < m.rows) {
            var acc = f.init
            var j = 0
            while (j < m.cols) { acc = f(acc, d.values(i * m.cols + j)); j += 1 }
            out(i) = acc
            i += 1
          }
      }
      MatrixBlock.dense(m.rows, 1, out)
    case ColDir =>
      val out = new Array[Double](m.cols)
      if (f != SumAgg) java.util.Arrays.fill(out, f.init)
      m match {
        case s: SparseBlock =>
          val touched = if (f == SumAgg) null else new Array[Int](m.cols)
          var i = 0
          while (i < m.rows) {
            var p = s.rowPtr(i)
            while (p < s.rowPtr(i + 1)) {
              val c = s.colIdx(p)
              out(c) = f(out(c), s.vals(p))
              if (touched != null) touched(c) += 1
              p += 1
            }
            i += 1
          }
          if (touched != null) {
            var c = 0
            while (c < m.cols) { if (touched(c) < m.rows) out(c) = f(out(c), 0.0); c += 1 }
          }
        case d: DenseBlock =>
          var i = 0
          while (i < m.rows) {
            var j = 0
            while (j < m.cols) { out(j) = f(out(j), d.values(i * m.cols + j)); j += 1 }
            i += 1
          }
      }
      MatrixBlock.dense(1, m.cols, out)
  }

  /** Rows [from, toExcl) as a new block (for mini-batching). */
  def rowSlice(m: MatrixBlock, from: Int, toExcl: Int): MatrixBlock = {
    require(from >= 0 && toExcl <= m.rows && from < toExcl, s"slice [$from,$toExcl) of ${m.rows} rows")
    m match {
      case d: DenseBlock =>
        new DenseBlock(toExcl - from, m.cols,
          java.util.Arrays.copyOfRange(d.values, from * m.cols, toExcl * m.cols))
      case s: SparseBlock =>
        val n = toExcl - from
        val rowPtr = new Array[Int](n + 1)
        val base = s.rowPtr(from)
        var i = 0
        while (i < n) { rowPtr(i + 1) = s.rowPtr(from + i + 1) - base; i += 1 }
        new SparseBlock(n, m.cols,
          rowPtr,
          java.util.Arrays.copyOfRange(s.colIdx, base, s.rowPtr(toExcl)),
          java.util.Arrays.copyOfRange(s.vals, base, s.rowPtr(toExcl)))
    }
  }

  /** Stack blocks vertically (all must share cols). Dense output. */
  def rbind(blocks: Seq[MatrixBlock]): MatrixBlock = {
    require(blocks.nonEmpty)
    val cols = blocks.head.cols
    require(blocks.forall(_.cols == cols), "rbind: column mismatch")
    val rows = blocks.map(_.rows).sum
    val out = new Array[Double](rows * cols)
    var off = 0
    blocks.foreach { b =>
      val d = b.toDense.values
      System.arraycopy(d, 0, out, off, d.length)
      off += d.length
    }
    new DenseBlock(rows, cols, out)
  }
}
