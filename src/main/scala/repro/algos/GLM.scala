package repro.algos

import repro.core._
import repro.runtime._
import Vec._

/** GLM with binomial-probit link (SystemML `GLM` binprobit, Table 2:
  * lambda=1e-3, 20 outer / 10 inner iterations), as iteratively
  * reweighted least squares with CG inner solves.
  *
  * The probit CDF is approximated by sigmoid(1.702 x) (documented
  * substitution — our IR carries sigmoid, not erf; the op mix is
  * identical). The inner CG solves t(X) %*% (w ⊙ (X %*% v)) — the
  * weighted matrix-multiplication chain that SystemML's hand-coded
  * `mmchain` operator covers and the Row template generalizes.
  */
object GLM {

  /** y: n x 1 labels in {0, 1}. */
  def run(ctx0: ExecContext, xData: MatrixData, yData: MatrixData,
          lambda: Double = 1e-3, maxIter: Int = 20, innerIter: Int = 10): AlgoRun = {
    implicit val ctx: ExecContext = ctx0
    val m = xData.cols.toInt
    val X = ctx.bind("X", xData)
    val Y = ctx.bind("Y", yData)

    var beta = MatrixBlock.zeros(m, 1): MatrixBlock
    var dev = 0.0
    var iter = 0
    while (iter < maxIter) {
      val bB = ctx.bindLocal(s"beta$iter", beta)
      // mu = probit-approx(eta); weights w = mu(1-mu); residual r = y - mu
      val eta = X %*% bB
      val mu = (eta * 1.702).sigmoid
      val wts = mu * (MX.lit(1.0) - mu) + 1e-4
      val grad = X.t %*% (Y - mu)
      val devExpr = ((Y - mu) ^ 2.0).sum
      val Seq(gD, wD, devD) = ctx.eval(Seq(grad, wts, devExpr))
      val g = gD.toLocal
      dev = devD.toLocal.get(0, 0)
      val W = ctx.bind(s"w$iter", wD)

      // CG on (t(X) %*% (w * (X %*% v)) + lambda v) = g
      var d = MatrixBlock.zeros(m, 1): MatrixBlock
      var r = g
      var pDir = r
      var rs = dot(r, r)
      var cg = 0
      while (cg < innerIter && rs > 1e-16) {
        val vB = ctx.bindLocal(s"v${iter}_$cg", pDir)
        val hvExpr = (X.t %*% (W * (X %*% vB))) + vB * lambda
        val hv = ctx.eval(Seq(hvExpr)).head.toLocal
        val alpha = rs / math.max(dot(pDir, hv), 1e-16)
        d = axpy(d, pDir, alpha)
        r = axpy(r, hv, -alpha)
        val rsNew = dot(r, r)
        pDir = axpy(r, pDir, rsNew / math.max(rs, 1e-16))
        rs = rsNew
        cg += 1
      }
      beta = axpy(beta, d, 1.0)
      iter += 1
    }
    AlgoRun("GLM", iter, dev)
  }
}
