package repro.algos

import repro.core._
import repro.runtime._
import Vec._

/** Multinomial logistic regression via Newton-CG (SystemML `MultiLogReg`,
  * Table 2: 2/5 classes, 20 outer / 10 inner iterations).
  *
  * The inner-loop Hessian-vector product is exactly the paper's running
  * example, Eq. (2):
  *   Q = P[,1:k] ⊙ (X %*% V)
  *   HV = t(X) %*% (Q - P[,1:k] ⊙ rowSums(Q))
  * which the Row template fuses into a single pass over X.
  */
object MLogreg {

  /** yOneHot: n x k one-hot labels (k = #classes); model B: m x (k-1). */
  def run(ctx0: ExecContext, xData: MatrixData, yOneHot: MatrixData,
          lambda: Double = 1e-3, maxIter: Int = 20, innerIter: Int = 10,
          step: Double = 1.0): AlgoRun = {
    implicit val ctx: ExecContext = ctx0
    val n = xData.rows
    val m = xData.cols.toInt
    val k1 = yOneHot.cols.toInt - 1 // k - 1 non-baseline classes
    require(k1 >= 1, "need >= 2 classes")

    val X = ctx.bind("X", xData)
    // Y1 = Y[, 1:k-1] (non-baseline one-hot columns), materialized once
    val yLocalFull = yOneHot.toLocal
    val y1 = MatrixBlock.tabulate(n.toInt, k1)((i, c) => yLocalFull.get(i, c))
    val y1Data: MatrixData = xData match {
      case _: DistData => ctx.distribute(y1)
      case _           => LocalData(y1)
    }
    val Y1 = ctx.bind("Y1", y1Data)

    // Y1 is created here, so it is released here
    try {
      var b = MatrixBlock.zeros(m, k1): MatrixBlock
      var loss = 0.0
      var iter = 0
      while (iter < maxIter) {
        val bB = ctx.bindLocal(s"B$iter", b)
        // P = exp(XB) / (1 + rowSums(exp(XB))) and gradient G = t(X)(P - Y1)
        val e = (X %*% bB).exp
        val p = e / (e.rowSums + 1.0)
        val gExpr = (X.t %*% (p - Y1)) + bB * lambda
        val lossExpr = ((p - Y1) ^ 2.0).sum // squared-error surrogate diagnostic
        val Seq(gD, lossD, pD) = ctx.eval(Seq(gExpr, lossExpr, p))
        val g = gD.toLocal
        loss = lossD.toLocal.get(0, 0)
        val P = ctx.bind(s"P$iter", pD)

        // CG solve (X' W X + lambda I) d = -G with Eq. (2) Hessian-vector products
        var d = MatrixBlock.zeros(m, k1): MatrixBlock
        var r = axpy(g, g, -2.0) // r = -g
        var pDir = r
        var rs = dot(r, r)
        var cg = 0
        while (cg < innerIter && rs > 1e-16) {
          val vB = ctx.bindLocal(s"V${iter}_$cg", pDir)
          val q = P * (X %*% vB)
          val hvExpr = (X.t %*% (q - P * q.rowSums)) + vB * lambda
          val hv = ctx.eval(Seq(hvExpr)).head.toLocal
          val alpha = rs / math.max(dot(pDir, hv), 1e-16)
          d = axpy(d, pDir, alpha)
          r = axpy(r, hv, -alpha)
          val rsNew = dot(r, r)
          pDir = axpy(r, pDir, rsNew / math.max(rs, 1e-16))
          rs = rsNew
          cg += 1
        }
        b = axpy(b, d, step)
        iter += 1
      }
      AlgoRun("MLogreg", iter, loss)
    } finally y1Data match {
      case DistData(dm) => dm.unpersist()
      case _            =>
    }
  }
}
