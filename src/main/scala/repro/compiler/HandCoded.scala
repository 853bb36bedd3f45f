package repro.compiler

import repro.core._
import repro.dist._
import repro.runtime._
import repro.runtime.Ops._

/** The "Fused" baseline: SystemML 0.15-style hand-coded fused operators.
  * A greedy pattern matcher replaces fixed two-to-four operator chains —
  * matrix multiplication chains, squared/product sums, and the
  * sparsity-exploiting weighted operators used by ALS — everything else
  * executes as basic operators. This is exactly the limitation the paper
  * motivates: fixed patterns, no DAG-level optimization.
  */
object HandCoded {

  /** Plan a DAG: hand-coded operators where a pattern matches (and all
    * interior nodes are consumed only inside the pattern), basic ops else. */
  def plan(roots: Seq[Hop]): ExecPlan = {
    val consumers = Hop.consumers(roots)
    def single(h: Hop): Boolean = consumers(h.id).size <= 1

    ExecPlan(ExecPlan.build(roots)(tryMatch(_, single)))
  }

  private def tryMatch(h: Hop, single: Hop => Boolean): Option[PHandCoded] = h match {
    // t(X) %*% (X %*% v)  and  t(X) %*% (w * (X %*% v))
    case m: MatMulHop => m.left match {
      case t: TransposeHop if single(t) => m.right match {
        case inner: MatMulHop if (inner.left eq t.in) && inner.right.cols == 1 && single(inner) =>
          Some(PHandCoded(MMChainXtXv, m, Set(m.id, t.id, inner.id), IndexedSeq(t.in, inner.right)))
        case w: BinaryHop if w.op == Mult && single(w) =>
          val (wv, mmOpt) = (w.left, w.right) match {
            case (inner: MatMulHop, wvec) if (inner.left eq t.in) && single(inner) && wvec.cols == 1 => (wvec, Some(inner))
            case (wvec, inner: MatMulHop) if (inner.left eq t.in) && single(inner) && wvec.cols == 1 => (wvec, Some(inner))
            case _ => (null, None)
          }
          mmOpt.collect { case inner if inner.right.cols == 1 =>
            PHandCoded(MMChainXtwXv, m, Set(m.id, t.id, w.id, inner.id), IndexedSeq(t.in, wv, inner.right))
          }
        case _ => matchWOuter(m, single)
      }
      case _ => matchWOuter(m, single)
    }
    case a: AggHop if a.func == SumAgg && a.dir == FullDir => a.in match {
      // sum(X^2)
      case p: UnaryHop if p.op == Pow2 && single(p) && !p.in.isVector =>
        p.in match {
          case b: BinaryHop if b.op == Minus && single(b) =>
            matchWsLossChain(b).map { case (x, u, v, cov) =>
              PHandCoded(HWSLoss, a, cov + a.id + p.id + b.id, IndexedSeq(x, u, v))
            }.orElse(Some(PHandCoded(HSumSq, a, Set(a.id, p.id), IndexedSeq(p.in))))
          case _ => Some(PHandCoded(HSumSq, a, Set(a.id, p.id), IndexedSeq(p.in)))
        }
      // sum(X * Y) over same-dimension matrices (no broadcasting)
      case b: BinaryHop if b.op == Mult && single(b) && !b.isVector &&
        b.left.rows == b.right.rows && b.left.cols == b.right.cols =>
        Some(PHandCoded(HSumProd, a, Set(a.id, b.id), IndexedSeq(b.left, b.right)))
      case _ => None
    }
    case _ => None
  }

  /** ((X != 0) * (U %*% t(V))) %*% W  and  t(...) %*% W. */
  private def matchWOuter(m: MatMulHop, single: Hop => Boolean): Option[PHandCoded] = {
    def chain(c: Hop): Option[(Hop, Hop, Hop, Set[Long])] = c match {
      case b: BinaryHop if b.op == Mult && single(b) =>
        val sides = Seq((b.left, b.right), (b.right, b.left))
        sides.collectFirst {
          case (nz: UnaryHop, mm: MatMulHop)
            if nz.op == Neq0 && single(nz) && single(mm) &&
               TemplateType.isOuterMatMul(mm) =>
            val v = mm.right.asInstanceOf[TransposeHop].in
            (nz.in, mm.left, v, Set(b.id, nz.id, mm.id, mm.right.id))
        }
      case _ => None
    }
    m.left match {
      case t: TransposeHop if single(t) =>
        chain(t.in).map { case (x, u, v, cov) =>
          PHandCoded(HWOuterLeft, m, cov + m.id + t.id, IndexedSeq(x, u, v, m.right))
        }
      case c =>
        chain(c).map { case (x, u, v, cov) =>
          PHandCoded(HWOuterRight, m, cov + m.id, IndexedSeq(x, u, v, m.right))
        }
    }
  }

  /** (X != 0) * (U %*% t(V)) - X   or   X - (X != 0) * (U %*% t(V)). */
  private def matchWsLossChain(b: BinaryHop): Option[(Hop, Hop, Hop, Set[Long])] = {
    def outer(c: Hop): Option[(Hop, Hop, Hop, Set[Long])] = c match {
      case w: BinaryHop if w.op == Mult =>
        Seq((w.left, w.right), (w.right, w.left)).collectFirst {
          case (nz: UnaryHop, mm: MatMulHop) if nz.op == Neq0 && TemplateType.isOuterMatMul(mm) =>
            (nz.in, mm.left, mm.right.asInstanceOf[TransposeHop].in,
              Set(w.id, nz.id, mm.id, mm.right.id))
        }
      case _ => None
    }
    (outer(b.left), outer(b.right)) match {
      case (Some((x, u, v, cov)), _) if b.right eq x => Some((x, u, v, cov))
      case (_, Some((x, u, v, cov))) if b.left eq x  => Some((x, u, v, cov))
      case _ => None
    }
  }

  // ------------------------------------------------------------ runtime

  def execute(op: PHandCoded, inputs: Seq[MatrixData], ctx: ExecContext): MatrixData = op.kind match {
    case MMChainXtXv => inputs.head match {
      case LocalData(x) => LocalData(mmchainLocal(x, inputs(1).toLocal, None))
      case DistData(x)  => LocalData(mmchainDist(x, inputs(1).toLocal, None))
    }
    case MMChainXtwXv => inputs.head match {
      case LocalData(x) => LocalData(mmchainLocal(x, inputs(2).toLocal, Some(inputs(1).toLocal)))
      // weight vectors fit the driver
      case DistData(x)  => LocalData(mmchainDist(x, inputs(2).toLocal, Some(inputs(1).toLocal)))
    }
    case HSumSq => blockwise(inputs, Nil, Aggregate(1, 1, _ => SumAgg))(b => sumSqLocal(b(0)))
    case HSumProd => (inputs(0), inputs(1)) match {
      case (LocalData(x), LocalData(y)) => LocalData(sumProdLocal(x, y))
      case (DistData(x), y)             => LocalData(sumProdDist(x, y))
      case (x, DistData(y))             => LocalData(sumProdDist(y, x)) // sum(X * Y) is symmetric
    }
    // X and U read by row, V whole, W whole (right) or by row (left)
    case HWSLoss => blockwise(inputs, Seq(true, false), Aggregate(1, 1, _ => SumAgg))(b => wsloss(b(0), b(1), b(2)))
    case HWOuterRight => blockwise(inputs, Seq(true, false, false), RowAligned(inputs(3).cols.toInt, 1.0))(
      b => wouter(b(0), b(1), b(2), b(3), left = false))
    case HWOuterLeft => blockwise(inputs, Seq(true, false, true),
      Aggregate(inputs(0).cols.toInt, inputs(3).cols.toInt, _ => SumAgg))(b => wouter(b(0), b(1), b(2), b(3), left = true))
  }

  /** The kernel `f` over X and its sides, side `k` read by row if
    * `byRow(k)`, else whole: over a local X once, over a distributed one
    * per row block, writing `out`. */
  private def blockwise(inputs: Seq[MatrixData], byRow: Seq[Boolean], out: Output)(
      f: IndexedSeq[MatrixBlock] => MatrixBlock): MatrixData = inputs.head match {
    case LocalData(x) => LocalData(f(x +: inputs.tail.map(_.toLocal).toIndexedSeq))
    case DistData(x) =>
      val sides = inputs.tail.zip(byRow).map { case (d, r) => BlockSide(d.either, r) }
      out match {
        case RowAligned(cols, sparsity)   => DistData(DistOps.mapBlocks(x, sides, cols, sparsity)((_, b) => f(b)))
        case Aggregate(rows, cols, funcs) => LocalData(DistOps.reduceBlocks(x, sides, rows, cols, funcs)((_, b) => f(b)))
      }
  }

  /** t(X) %*% (w? * (X %*% v)) in a single pass over X. */
  def mmchainLocal(x: MatrixBlock, v: MatrixBlock, w: Option[MatrixBlock]): MatrixBlock = {
    val vd = v.toDense.values
    val out = new Array[Double](x.cols)
    x match {
      case s: SparseBlock =>
        var i = 0
        while (i < s.rows) {
          val start = s.rowPtr(i); val len = s.rowPtr(i + 1) - start
          var d = VectorPrims.dotProduct(s.vals, vd, s.colIdx, start, 0, len)
          w.foreach(wb => d *= wb.get(i, 0))
          VectorPrims.vectMultAdd(s.vals, d, out, s.colIdx, start, 0, len)
          i += 1
        }
      case b =>
        val d0 = b.toDense
        var i = 0
        while (i < d0.rows) {
          var d = VectorPrims.dotProduct(d0.values, vd, i * d0.cols, 0, d0.cols)
          w.foreach(wb => d *= wb.get(i, 0))
          VectorPrims.vectMultAdd(d0.values, d, out, i * d0.cols, 0, d0.cols)
          i += 1
        }
    }
    new DenseBlock(x.cols, 1, out)
  }

  def mmchainDist(x: DistMatrix, v: MatrixBlock, w: Option[MatrixBlock]): MatrixBlock =
    DistOps.reduceBlocks(x, LocalSide(v, rowAligned = false) +: w.map(LocalSide(_, rowAligned = true)).toSeq,
      x.cols.toInt, 1, _ => SumAgg)((_, b) => mmchainLocal(b(0), b(1), b.lift(2)))

  /** sum(X * Y) with X distributed and Y (same shape) distributed or local. */
  private def sumProdDist(x: DistMatrix, y: MatrixData): MatrixBlock =
    DistOps.reduceBlocks(x, Seq(BlockSide(y.either, byRow = true)), 1, 1, _ => SumAgg)((_, b) => sumProdLocal(b(0), b(1)))

  def sumSqLocal(x: MatrixBlock): MatrixBlock = {
    var acc = 0.0
    x match {
      case s: SparseBlock =>
        var k = 0
        while (k < s.vals.length) { acc += s.vals(k) * s.vals(k); k += 1 }
      case c: CompressedBlock =>
        // CLA hand-coded: square the dictionaries, weight by counts
        var j = 0
        while (j < c.cols) {
          val g = c.groups(j)
          var d = 0
          while (d < g.dict.length) { acc += g.dict(d) * g.dict(d) * g.counts(d); d += 1 }
          j += 1
        }
      case b =>
        val d = b.toDense.values
        var k = 0
        while (k < d.length) { acc += d(k) * d(k); k += 1 }
    }
    MatrixBlock.dense(1, 1, Array(acc))
  }

  def sumProdLocal(x: MatrixBlock, y: MatrixBlock): MatrixBlock = {
    var acc = 0.0
    x match {
      case s: SparseBlock =>
        var i = 0
        while (i < s.rows) {
          var p = s.rowPtr(i)
          while (p < s.rowPtr(i + 1)) { acc += s.vals(p) * y.get(i, s.colIdx(p)); p += 1 }
          i += 1
        }
      case b =>
        var i = 0
        while (i < b.rows) {
          var j = 0
          while (j < b.cols) { acc += b.get(i, j) * y.get(i, j); j += 1 }
          i += 1
        }
    }
    MatrixBlock.dense(1, 1, Array(acc))
  }

  /** sum(((X != 0) * (U %*% t(V)) - X)^2) over the non-zeros of X. */
  def wsloss(x: MatrixBlock, u0: MatrixBlock, v0: MatrixBlock): MatrixBlock = {
    val (u, v) = (u0.toDense, v0.toDense)
    val r = u.cols
    var acc = 0.0
    foreachNz(x) { (i, j, xij) =>
      val d = VectorPrims.dotProduct(u.values, v.values, i * r, j * r, r) - xij
      acc += d * d
    }
    MatrixBlock.dense(1, 1, Array(acc))
  }

  /** ((X != 0) * (U %*% t(V))) %*% W (right) or its transpose-left variant. */
  def wouter(x: MatrixBlock, u0: MatrixBlock, v0: MatrixBlock, w0: MatrixBlock, left: Boolean): MatrixBlock = {
    val (u, v, w) = (u0.toDense, v0.toDense, w0.toDense)
    val r = u.cols
    val outRows = if (left) x.cols else x.rows
    val out = new Array[Double](outRows * w.cols)
    foreachNz(x) { (i, j, _) =>
      val d = VectorPrims.dotProduct(u.values, v.values, i * r, j * r, r)
      if (left) VectorPrims.vectMultAdd(w.values, d, out, i * w.cols, j * w.cols, w.cols)
      else VectorPrims.vectMultAdd(w.values, d, out, j * w.cols, i * w.cols, w.cols)
    }
    new DenseBlock(outRows, w.cols, out)
  }

  private def foreachNz(x: MatrixBlock)(f: (Int, Int, Double) => Unit): Unit = x match {
    case s: SparseBlock =>
      var i = 0
      while (i < s.rows) {
        var p = s.rowPtr(i)
        while (p < s.rowPtr(i + 1)) { f(i, s.colIdx(p), s.vals(p)); p += 1 }
        i += 1
      }
    case b =>
      var i = 0
      while (i < b.rows) {
        var j = 0
        while (j < b.cols) {
          val xij = b.get(i, j)
          if (xij != 0.0) f(i, j, xij)
          j += 1
        }
        i += 1
      }
  }
}
