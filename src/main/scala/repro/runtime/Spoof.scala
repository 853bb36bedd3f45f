package repro.runtime

import repro.compiler._
import repro.runtime.Ops._

/** Hand-coded skeletons of fused operators (paper §2.2 "Runtime
  * Integration", Fig. 4). The skeleton owns the data access and calls the
  * generated `genexec` per value/row. The cell-wise skeletons iterate only
  * the non-zeros of a sparse main input exactly when its CPlan is
  * sparse-safe, a decision made once when the CPlan is bound; the Row
  * skeleton hands every row in place, a sparse one as its non-zeros, to a
  * generated sparse-row variant. A compressed main input is read on its
  * dictionaries by [[SpoofMultiAgg]] (scalar side inputs only, sums only)
  * and decompressed by every other path. Generated operators are Java classes
  * produced by [[repro.compiler.Codegen]] (compiled in-memory); the
  * skeleton + shared [[VectorPrims]] keep the per-operator instruction
  * footprint small.
  *
  * Each skeleton is multi-threaded, as in the paper: it runs its loop over
  * row ranges of the main input ([[RowRanges]]), each range with the
  * generated operator instance of its own thread (own ring buffers).
  * Variants that write whole rows write disjoint rows of one output;
  * aggregating variants keep one partial per range and combine the
  * partials in range order.
  *
  * Each skeleton executes one local [[MatrixBlock]]; the distributed
  * runtime invokes the same skeletons per row block through
  * `DistOps.mapBlocks` / `reduceBlocks` and combines partial aggregates;
  * inside a Spark task a skeleton runs as one range.
  */
object Spoof {
  /** Work per main-input value a generated operator reads, for the
    * split decision of [[RowRanges]]: the skeleton does not see the
    * operator's inner loops. */
  val ValueWork = 64L

  /** Work of a skeleton over its main input: the values it reads. */
  def work(main: MatrixBlock, sparseDriver: Boolean): Long =
    (if (sparseDriver) main.nnz else main.numCells) * ValueWork

  /** Densify side inputs for O(1) access (stateless `get` over sparse
    * blocks would degrade to row scans; the paper uses stateful iterators). */
  def prepSides(inputs: IndexedSeq[MatrixBlock]): Array[MatrixBlock] = {
    val out = new Array[MatrixBlock](inputs.length)
    var i = 0
    while (i < out.length) {
      out(i) = inputs(i) match {
        case s: SparseBlock if i > 0 => s.toDense
        case b => b
      }
      i += 1
    }
    out
  }
}

sealed trait SpoofOperator extends Serializable {
  /** Execute over local blocks; inputs ordered as in the CPlan (main
    * first). Aggregating operators return their aggregate (MAgg: 1 x k). */
  def execute(inputs: IndexedSeq[MatrixBlock]): MatrixBlock
}

/** Cell template skeleton: iterates cells (or non-zeros when sparse-safe)
  * of the main input. Full aggregates run in [[SpoofMultiAgg]]. */
final class SpoofCellwise(
    val variant: CellVariant,
    val sparseSafe: Boolean,
    val exec: ExecRef[CellExec],
) extends SpoofOperator {

  def execute(inputs0: IndexedSeq[MatrixBlock]): MatrixBlock = {
    val inputs = Spoof.prepSides(inputs0)
    inputs(0) match {
      case s: SparseBlock if sparseSafe => executeSparse(s, inputs, Spoof.work(s, sparseDriver = true))
      case m => executeGeneric(inputs, Spoof.work(m, sparseDriver = false))
    }
  }

  private def executeSparse(s: SparseBlock, inputs: Array[MatrixBlock], work: Long): MatrixBlock = variant match {
    case CellNoAgg =>
      val vals = new Array[Double](s.vals.length)
      RowRanges.foreach(s.rows, work) { (rl, ru) =>
        val gx = exec.get
        var i = rl
        while (i < ru) {
          var p = s.rowPtr(i)
          while (p < s.rowPtr(i + 1)) { vals(p) = gx.genexec(s.vals(p), inputs, i, s.colIdx(p)); p += 1 }
          i += 1
        }
      }
      new SparseBlock(s.rows, s.cols, s.rowPtr, s.colIdx, vals)
    // pseudo-sparse-safe aggregation: min/max observe implicit zeros
    case CellRowAgg(f) =>
      val out = new Array[Double](s.rows)
      if (f != SumAgg) java.util.Arrays.fill(out, f.init)
      RowRanges.foreach(s.rows, work) { (rl, ru) =>
        val gx = exec.get
        var i = rl
        while (i < ru) {
          var q = s.rowPtr(i)
          while (q < s.rowPtr(i + 1)) { out(i) = f(out(i), gx.genexec(s.vals(q), inputs, i, s.colIdx(q))); q += 1 }
          if (f != SumAgg && s.rowPtr(i + 1) - s.rowPtr(i) < s.cols) out(i) = f(out(i), 0.0)
          i += 1
        }
      }
      MatrixBlock.dense(s.rows, 1, out)
    case CellColAgg(f) =>
      val out = RowRanges.combine(RowRanges.map(s.rows, work) { (rl, ru) =>
        val gx = exec.get
        val out = new Array[Double](s.cols)
        if (f != SumAgg) java.util.Arrays.fill(out, f.init)
        var i = rl
        while (i < ru) {
          var q = s.rowPtr(i)
          while (q < s.rowPtr(i + 1)) {
            val cix = s.colIdx(q)
            out(cix) = f(out(cix), gx.genexec(s.vals(q), inputs, i, cix))
            q += 1
          }
          i += 1
        }
        out
      }, _ => f)
      if (f != SumAgg && s.nnz < s.numCells) {
        var c = 0
        while (c < s.cols) { out(c) = f(out(c), 0.0); c += 1 }
      }
      MatrixBlock.dense(1, s.cols, out)
  }

  private def executeGeneric(inputs: Array[MatrixBlock], work: Long): MatrixBlock = {
    val main = inputs(0).toDense
    val mv = main.values
    val n = main.rows; val m = main.cols
    variant match {
      case CellNoAgg =>
        val out = new Array[Double](n * m)
        RowRanges.foreach(n, work) { (rl, ru) =>
          val gx = exec.get
          var i = rl
          while (i < ru) {
            var j = 0
            val off = i * m
            while (j < m) { out(off + j) = gx.genexec(mv(off + j), inputs, i, j); j += 1 }
            i += 1
          }
        }
        new DenseBlock(n, m, out)
      case CellRowAgg(f) =>
        val out = new Array[Double](n)
        RowRanges.foreach(n, work) { (rl, ru) =>
          val gx = exec.get
          var i = rl
          while (i < ru) {
            var acc = f.init
            var j = 0
            val off = i * m
            while (j < m) { acc = f(acc, gx.genexec(mv(off + j), inputs, i, j)); j += 1 }
            out(i) = acc
            i += 1
          }
        }
        MatrixBlock.dense(n, 1, out)
      case CellColAgg(f) =>
        MatrixBlock.dense(1, m, RowRanges.combine(RowRanges.map(n, work) { (rl, ru) =>
          val gx = exec.get
          val out = new Array[Double](m)
          if (f != SumAgg) java.util.Arrays.fill(out, f.init)
          var i = rl
          while (i < ru) {
            var j = 0
            val off = i * m
            while (j < m) { out(j) = f(out(j), gx.genexec(mv(off + j), inputs, i, j)); j += 1 }
            i += 1
          }
          out
        }, _ => f))
    }
  }
}

/** Multi-aggregate skeleton, the one skeleton of full aggregates: k of
  * them over shared inputs computed in one pass over the main input
  * (cells, non-zeros when sparse-safe, or, for a compressed main input
  * with scalar side inputs and sums only, dictionary entries); output is
  * 1 x k. Cells and non-zeros are read over row ranges, one 1 x k partial
  * per range. */
final class SpoofMultiAgg(
    val funcs: IndexedSeq[AggFunc],
    val sparseSafe: Boolean,
    val execs: IndexedSeq[ExecRef[CellExec]],
) extends SpoofOperator {

  def execute(inputs0: IndexedSeq[MatrixBlock]): MatrixBlock = {
    val inputs = Spoof.prepSides(inputs0)
    val fns = funcs.toArray
    /** One partial over rows [rl, ru), from `add(acc, gxs)`. */
    def partials(n: Int, work: Long)(add: (Int, Int, Array[Double], Array[CellExec]) => Unit): Array[Double] =
      RowRanges.combine(RowRanges.map(n, work) { (rl, ru) =>
        val acc = fns.map(_.init)
        add(rl, ru, acc, execs.map(_.get).toArray)
        acc
      }, fns)
    val acc = inputs(0) match {
      case c: CompressedBlock if inputs.iterator.drop(1).forall(_.numCells == 1) && fns.forall(_ == SumAgg) =>
        // CLA: genexec once per distinct value of each column, weighted by
        // its count (paper §5.2); scalar side inputs, such as literals, are
        // the same for every cell
        val gxs = execs.map(_.get).toArray
        val acc = fns.map(_.init)
        var j = 0
        while (j < c.cols) {
          val g = c.groups(j)
          var d = 0
          while (d < g.dict.length) {
            var k = 0
            while (k < acc.length) { acc(k) += gxs(k).genexec(g.dict(d), inputs, 0, j) * g.counts(d); k += 1 }
            d += 1
          }
          j += 1
        }
        acc
      case s: SparseBlock if sparseSafe =>
        val acc = partials(s.rows, Spoof.work(s, sparseDriver = true)) { (rl, ru, acc, gxs) =>
          var i = rl
          while (i < ru) {
            var q = s.rowPtr(i)
            while (q < s.rowPtr(i + 1)) {
              var k = 0
              while (k < acc.length) { acc(k) = fns(k)(acc(k), gxs(k).genexec(s.vals(q), inputs, i, s.colIdx(q))); k += 1 }
              q += 1
            }
            i += 1
          }
        }
        if (s.nnz < s.numCells) {
          var k = 0
          while (k < acc.length) { if (fns(k) != SumAgg) acc(k) = fns(k)(acc(k), 0.0); k += 1 }
        }
        acc
      case m0 =>
        val d = m0.toDense
        val dv = d.values
        partials(d.rows, Spoof.work(d, sparseDriver = false) * fns.length) { (rl, ru, acc, gxs) =>
          var i = rl
          while (i < ru) {
            var j = 0
            val off = i * d.cols
            while (j < d.cols) {
              val a = dv(off + j)
              var k = 0
              while (k < acc.length) { acc(k) = fns(k)(acc(k), gxs(k).genexec(a, inputs, i, j)); k += 1 }
              j += 1
            }
            i += 1
          }
        }
    }
    MatrixBlock.dense(1, acc.length, acc)
  }
}

/** Row template skeleton: hands each row of the main input in place to
  * the generated operator, a dense row as (values, offset) and a sparse
  * row as its non-zeros (paper §2.2); a compressed main input is
  * decompressed once per call. The generated code writes or accumulates
  * each row's result into the output, whose shape the variant and the
  * CPlan root's dimensions (`rootRows` x `rootCols`) give: each row range
  * writes its rows of one shared output (NoAgg, RowAgg) or accumulates
  * into its own partial (ColAgg, FullAgg, ColAggT). It reads input `k` by
  * row if `byRow(k)`, else whole, so a sparse one is densified once per
  * call. */
final class SpoofRowwise(
    val variant: RowVariant,
    val rootRows: Int,
    val rootCols: Int,
    val byRow: IndexedSeq[Boolean],
    val exec: ExecRef[RowExec],
) extends SpoofOperator {

  def execute(inputs0: IndexedSeq[MatrixBlock]): MatrixBlock = {
    val inputs = new Array[MatrixBlock](inputs0.length)
    var k = 0
    while (k < inputs.length) {
      inputs(k) = inputs0(k) match {
        case c: CompressedBlock               => c.toDense
        case s: SparseBlock if !byRow(k)      => s.toDense
        case b                                => b
      }
      k += 1
    }
    val n = inputs(0).rows
    val m = inputs(0).cols
    val (outRows, outCols) = variant match {
      case RowNoAgg   => (n, rootCols)
      case RowRowAgg  => (n, 1)
      case RowColAgg  => (1, rootCols)
      case RowFullAgg => (1, 1)
      case RowColAggT => (rootRows, rootCols)
    }
    val disjoint = variant == RowNoAgg || variant == RowRowAgg
    val sparse = inputs(0) match { case s: SparseBlock => s; case _ => null }
    val dense = if (sparse == null) inputs(0).toDense.values else null
    val c = RowRanges.fill(n, Spoof.work(inputs(0), sparse != null), outRows * outCols, disjoint) { (rl, ru, c) =>
      val gx = exec.get
      var i = rl
      while (i < ru) {
        if (sparse != null) {
          val apos = sparse.rowPtr(i)
          gx.genexec(sparse.vals, sparse.colIdx, apos, sparse.rowPtr(i + 1) - apos, inputs, c, i, m)
        } else gx.genexec(dense, i * m, inputs, c, i, m)
        i += 1
      }
    }
    new DenseBlock(outRows, outCols, c)
  }
}

/** Outer-product template skeleton: iterates the cells of the driver X,
  * only its non-zeros when X is sparse (every Outer CPlan is sparse-safe
  * w.r.t. X), with row access to the factors U and V (paper Fig. 3(a)).
  * Each row range of X writes its rows of one shared output (NoAgg,
  * RightMM) or accumulates into its own partial (FullAgg, LeftMM). */
final class SpoofOuterProduct(
    val variant: OuterVariant,
    /** Index of the closing matmult's other operand W in the inputs (MM variants). */
    val wIdx: Int,
    val exec: ExecRef[OuterExec],
) extends SpoofOperator {

  def execute(inputs0: IndexedSeq[MatrixBlock]): MatrixBlock = {
    val inputs: Array[MatrixBlock] = inputs0.toArray
    val x = inputs(0)
    val u = inputs(1).toDense
    val v = inputs(2).toDense
    val w = if (wIdx >= 0) inputs(wIdx).toDense else null
    val sparse = x match { case s: SparseBlock => s; case _ => null }
    val dense = if (sparse == null) x.toDense else null
    val work = Spoof.work(x, sparse != null)

    // sparse driver + NO_AGG: the sparse-safe chain keeps X's pattern —
    // never allocate the dense n x m output
    if (sparse != null && variant == OuterNoAgg) {
      val vals = new Array[Double](sparse.vals.length)
      RowRanges.foreach(x.rows, work) { (rl, ru) =>
        val gx = exec.get
        var i = rl
        while (i < ru) {
          var p = sparse.rowPtr(i)
          while (p < sparse.rowPtr(i + 1)) {
            vals(p) = gx.genexec(sparse.vals(p), u.values, v.values, inputs, i, sparse.colIdx(p))
            p += 1
          }
          i += 1
        }
      }
      return new SparseBlock(sparse.rows, sparse.cols, sparse.rowPtr, sparse.colIdx, vals)
    }

    val (outRows, outCols) = variant match {
      case OuterFullAgg => (1, 1)
      case OuterRightMM => (x.rows, w.cols)
      case OuterLeftMM  => (x.cols, w.cols)
      case OuterNoAgg   => (x.rows, x.cols)
    }
    val disjoint = variant == OuterRightMM || variant == OuterNoAgg
    val out = RowRanges.fill(x.rows, work, outRows * outCols, disjoint) { (rl, ru, out) =>
      val gx = exec.get
      @inline def process(i: Int, j: Int, xij: Double): Unit = {
        val res = gx.genexec(xij, u.values, v.values, inputs, i, j)
        variant match {
          case OuterFullAgg => out(0) += res
          case OuterRightMM => VectorPrims.vectMultAdd(w.values, res, out, j * w.cols, i * outCols, w.cols)
          case OuterLeftMM  => VectorPrims.vectMultAdd(w.values, res, out, i * w.cols, j * outCols, w.cols)
          case OuterNoAgg   => out(i * outCols + j) = res
        }
      }
      var i = rl
      while (i < ru) {
        if (sparse != null) {
          var p = sparse.rowPtr(i)
          while (p < sparse.rowPtr(i + 1)) { process(i, sparse.colIdx(p), sparse.vals(p)); p += 1 }
        } else {
          var j = 0
          while (j < dense.cols) { process(i, j, dense.values(i * dense.cols + j)); j += 1 }
        }
        i += 1
      }
    }
    new DenseBlock(outRows, outCols, out)
  }
}
