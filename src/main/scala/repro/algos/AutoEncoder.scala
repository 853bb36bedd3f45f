package repro.algos

import repro.core._
import repro.runtime._
import Vec._

/** Two-hidden-layer autoencoder with mini-batch SGD (SystemML
  * `staging/autoencoder-2layer`, Table 2: batch 512, H1=500, H2=2,
  * nrow(X)/|batch| iterations).
  *
  * Compute-intensive: dense matrix-matrix multiplications dominate;
  * fusion helps the element-wise sigmoid/backprop chains (paper Table 5
  * reports a solid 2x for Gen and the heuristics alike).
  */
object AutoEncoder {

  def run(ctx0: ExecContext, xData: MatrixData, h1: Int = 500, h2: Int = 2,
          batch: Int = 512, epochs: Int = 1, eta: Double = 1e-3,
          seed: Long = 41, maxBatches: Int = Int.MaxValue): AlgoRun = {
    implicit val ctx: ExecContext = ctx0
    val n = xData.rows.toInt
    val m = xData.cols.toInt
    val X = ctx.bind("X", xData)

    def rand(r: Int, c: Int, s: Long) =
      MatrixBlock.rand(r, c, 1.0, s, min = -math.sqrt(6.0 / (r + c)), max = math.sqrt(6.0 / (r + c))).toDense
    var w1 = rand(m, h1, seed);      var b1 = MatrixBlock.zeros(1, h1)
    var w2 = rand(h1, h2, seed + 1); var b2 = MatrixBlock.zeros(1, h2)
    var w3 = rand(h2, h1, seed + 2); var b3 = MatrixBlock.zeros(1, h1)
    var w4 = rand(h1, m, seed + 3);  var b4 = MatrixBlock.zeros(1, m)

    val nBatches = math.min(math.max(1, n / batch), maxBatches)
    var loss = 0.0
    var it = 0
    for (_ <- 0 until epochs; bi <- 0 until nBatches) {
      val lo = bi * batch
      val hi = math.min(n, lo + batch)
      val xb = X.sliceRows(lo, hi)

      val w1B = ctx.bindLocal(s"w1_$it", w1); val b1B = ctx.bindLocal(s"b1_$it", b1)
      val w2B = ctx.bindLocal(s"w2_$it", w2); val b2B = ctx.bindLocal(s"b2_$it", b2)
      val w3B = ctx.bindLocal(s"w3_$it", w3); val b3B = ctx.bindLocal(s"b3_$it", b3)
      val w4B = ctx.bindLocal(s"w4_$it", w4); val b4B = ctx.bindLocal(s"b4_$it", b4)

      val res = ctx.eval(batchDag(xb, Seq(w1B, b1B, w2B, b2B, w3B, b3B, w4B, b4B))).map(_.toLocal)
      loss = res(0).get(0, 0)
      w1 = axpy(w1, res(1), -eta); b1 = axpy(b1, res(2), -eta)
      w2 = axpy(w2, res(3), -eta); b2 = axpy(b2, res(4), -eta)
      w3 = axpy(w3, res(5), -eta); b3 = axpy(b3, res(6), -eta)
      w4 = axpy(w4, res(7), -eta); b4 = axpy(b4, res(8), -eta)
      it += 1
    }
    AlgoRun("AutoEncoder", it, loss)
  }

  /** One mini-batch step as one DAG, forward and backward, so the shared
    * activations are CSEs. `params` are w1, b1, …, w4, b4; the roots are
    * the loss, then the gradient of each parameter in that order. */
  def batchDag(xb: MX, params: Seq[MX])(implicit ctx: ExecContext): Seq[MX] = {
    val Seq(w1B, b1B, w2B, b2B, w3B, b3B, w4B, b4B) = params
    val a1 = ((xb %*% w1B) + b1B).sigmoid
    val a2 = ((a1 %*% w2B) + b2B).sigmoid
    val a3 = ((a2 %*% w3B) + b3B).sigmoid
    val out = (a3 %*% w4B) + b4B
    val err = out - xb
    val lossExpr = (err ^ 2.0).sum

    val d4 = err                                     // linear output layer
    val d3 = (d4 %*% w4B.t) * a3 * (MX.lit(1.0) - a3)
    val d2 = (d3 %*% w3B.t) * a2 * (MX.lit(1.0) - a2)
    val d1 = (d2 %*% w2B.t) * a1 * (MX.lit(1.0) - a1)

    val gw4 = a3.t %*% d4; val gb4 = d4.colSums
    val gw3 = a2.t %*% d3; val gb3 = d3.colSums
    val gw2 = a1.t %*% d2; val gb2 = d2.colSums
    val gw1 = xb.t %*% d1; val gb1 = d1.colSums
    Seq(lossExpr, gw1, gb1, gw2, gb2, gw3, gb3, gw4, gb4)
  }
}
