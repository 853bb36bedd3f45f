package repro.algos

import repro.core._
import repro.runtime._
import Vec._

/** L2-regularized squared-hinge-loss SVM (SystemML `l2-svm`, Table 2:
  * lambda=1e-3, eps=1e-12, 20 outer / unbounded inner iterations).
  *
  * Nonlinear conjugate gradient over w with a Newton line search per
  * direction. The per-iteration operation mix is the paper's
  * data-intensive profile: X %*% s (Row), t(X) %*% (Y ⊙ out) chains
  * (Row, mmchain-able), element-wise vector chains (Cell), and multiple
  * full aggregates over shared vectors (MAgg).
  */
object L2SVM {

  def run(ctx0: ExecContext, xData: MatrixData, yData: MatrixData,
          lambda: Double = 1e-3, eps: Double = 1e-12,
          maxIter: Int = 20, maxInnerIter: Int = 20): AlgoRun = {
    implicit val ctx: ExecContext = ctx0
    val n = xData.rows.toInt
    val m = xData.cols.toInt

    val X = ctx.bind("X", xData)
    val Y = ctx.bind("Y", yData)

    var w  = MatrixBlock.zeros(m, 1): MatrixBlock
    var xw = MatrixBlock.zeros(n, 1): MatrixBlock

    // g_old = t(X) %*% Y  (w = 0 => out = 1, all support vectors)
    var gOld = (X.t %*% Y).eval().toLocal
    var s = gOld

    var obj = 0.0
    var iter = 0
    var converged = false
    while (iter < maxIter && !converged) {
      val sB  = ctx.bindLocal(s"s$iter", s)
      val xwB = ctx.bindLocal(s"xw$iter", xw)

      // direction-dependent constants: Xd = X %*% s (one DAG)
      val xdData = (X %*% sB).eval()
      val xd = xdData
      val xdB = ctx.bind(s"xd$iter", xd)
      val wd = lambda * dot(w, s)
      val dd = lambda * dot(s, s)

      // Newton line search over the step size
      var stepSz = 0.0
      var inner = 0
      var innerDone = false
      while (inner < maxInnerIter && !innerDone) {
        // out = 1 - Y*(Xw + step*Xd); g/h from two aggregates sharing inputs
        val out = MX.lit(1.0) - Y * (xwB + xdB * stepSz)
        val sv = out > 0.0
        val gExpr = (out * sv * Y * xdB).sum
        val hExpr = (xdB * sv * xdB).sum
        val Seq(gV, hV) = ctx.eval(Seq(gExpr, hExpr)).map(_.toLocal.get(0, 0))
        val g = wd + stepSz * dd - gV
        val h = dd + hV
        if (h > 0) stepSz = stepSz - g / h
        inner += 1
        if (h <= 0 || g * g / h < eps) innerDone = true
      }

      // model update + new gradient (one DAG with multiple roots)
      w = axpy(w, s, stepSz)
      xw = axpy(xw, xd.toLocal, stepSz)
      val wB2  = ctx.bindLocal(s"w2$iter", w)
      val xwB2 = ctx.bindLocal(s"xw2$iter", xw)
      val out = MX.lit(1.0) - Y * xwB2
      val outPos = out * (out > 0.0)
      val objExpr = (outPos ^ 2.0).sum * 0.5 + (wB2 ^ 2.0).sum * (lambda / 2)
      val gNewExpr = (X.t %*% (outPos * Y)) - wB2 * lambda
      val Seq(objD, gNewD) = ctx.eval(Seq(objExpr, gNewExpr))
      obj = objD.toLocal.get(0, 0)
      val gNew = gNewD.toLocal

      val gNewNorm = dot(gNew, gNew)
      val gOldNorm = dot(gOld, gOld)
      if (math.sqrt(gNewNorm) < eps * 1e6 || gOldNorm == 0.0) converged = true
      else {
        val beta = gNewNorm / gOldNorm
        s = MatrixBlock.tabulate(m, 1)((i, _) => gNew.get(i, 0) + beta * s.get(i, 0))
        gOld = gNew
      }
      iter += 1
    }
    AlgoRun("L2SVM", iter, obj)
  }
}
