package repro.compiler

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import repro.core._
import repro.runtime._
import repro.runtime.Ops._

/** Code generation statistics (paper Table 3): compiled DAGs, CPlans of
  * executed fused operators, compiled operators, plan-cache hits, and
  * compile overhead. */
object CodegenStats {
  val dagsOptimized      = new AtomicLong
  val cplansConstructed  = new AtomicLong
  val operatorsCompiled  = new AtomicLong
  val planCacheHits      = new AtomicLong
  val codegenNanos       = new AtomicLong // total codegen step (explore + select + compile)
  val compileNanos       = new AtomicLong // operator class compilation only
  val plansEvaluated     = new AtomicLong // costed plans in MPSkipEnum
  val plansSkipped       = new AtomicLong // pruned plans in MPSkipEnum

  def reset(): Unit = Seq(dagsOptimized, cplansConstructed, operatorsCompiled,
    planCacheHits, codegenNanos, compileNanos, plansEvaluated, plansSkipped).foreach(_.set(0))
}

/** Compiles CPlans into executable fused operators.
  *
  * Per-operator Java source, compiled in memory with janino, as in the
  * paper (§2.1, Fig. 11). Generated classes only override the template's
  * `genexec`; data access and aggregation live in the hand-coded
  * skeletons ([[repro.runtime.SpoofCellwise]] et al.), each of which runs
  * on one thread. The class cache of [[repro.runtime.JavaBackend]], keyed
  * by the generated source, identifies equivalent CPlans and avoids
  * re-compilation across DAGs and dynamic recompilation (paper §2.1,
  * §5.3). Only classes are cached: the skeleton's parameters
  * (aggregation, sparse-safety, variant) are not part of the source, so
  * every call builds the skeleton fresh from its CPlan.
  */
object Codegen {

  def compile(cplan: CPlan): SpoofOperator = {
    val t0 = System.nanoTime()
    val sources = cplan.tpe match {
      case CellTpl  => IndexedSeq(cellSource(cplan, cplan.chainRoot))
      case MAggTpl  => cplan.roots.map(r => cellSource(cplan, r.asInstanceOf[AggHop].in))
      case RowTpl   => IndexedSeq(rowSource(cplan))
      case OuterTpl => IndexedSeq(outerSource(cplan))
    }
    // a miss if this call compiled any class: of several threads compiling
    // the same new source, only the one that compiled it counts it
    if (sources.map(JavaBackend.load).contains(true)) {
      CodegenStats.compileNanos.addAndGet(System.nanoTime() - t0)
      CodegenStats.operatorsCompiled.incrementAndGet()
    } else CodegenStats.planCacheHits.incrementAndGet()
    cplan.tpe match {
      case CellTpl  => new SpoofCellwise(cplan.cellVariant.get, cplan.sparseSafe, ExecRef(sources.head))
      case MAggTpl  => new SpoofMultiAgg(cplan.maggFuncs, cplan.sparseSafe, sources.map(ExecRef[CellExec]))
      case RowTpl   => new SpoofRowwise(cplan.rowVariant.get, ExecRef(sources.head))
      case OuterTpl => new SpoofOuterProduct(cplan.outerVariant.get, cplan.wIdx, ExecRef(sources.head))
    }
  }

  private def inputIndex(h: Hop, cplan: CPlan): Int = {
    val idx = cplan.inputs.indexWhere(_ eq h)
    if (idx < 0) throw new IllegalStateException(s"input $h not bound in CPlan inputs ${cplan.inputs}")
    idx
  }

  private def unaryJava(op: UnaryOp, x: String): String = op match {
    case Exp     => s"Math.exp($x)"
    case Log     => s"Math.log($x)"
    case Sqrt    => s"Math.sqrt($x)"
    case Abs     => s"Math.abs($x)"
    case Sign    => s"Math.signum($x)"
    case Neg     => s"(-$x)"
    case Sigmoid => s"(1.0 / (1.0 + Math.exp(-$x)))"
    case Neq0    => s"(($x != 0.0) ? 1.0 : 0.0)"
    case Pow2    => s"($x * $x)"
  }

  private def binaryJava(op: BinaryOp, x: String, y: String): String = op match {
    case Plus  => s"($x + $y)"
    case Minus => s"($x - $y)"
    case Mult  => s"($x * $y)"
    case Div   => s"($x / $y)"
    case Pow   => s"Math.pow($x, $y)"
    case MinOp => s"Math.min($x, $y)"
    case MaxOp => s"Math.max($x, $y)"
    case Neq   => s"(($x != $y) ? 1.0 : 0.0)"
    case Eq    => s"(($x == $y) ? 1.0 : 0.0)"
    case Gt    => s"(($x > $y) ? 1.0 : 0.0)"
    case Lt    => s"(($x < $y) ? 1.0 : 0.0)"
    case Ge    => s"(($x >= $y) ? 1.0 : 0.0)"
    case Le    => s"(($x <= $y) ? 1.0 : 0.0)"
  }

  private final class Src(val prefix: String = "") {
    val body = new StringBuilder
    val fields = new StringBuilder
    private var n = 0
    val memo = mutable.Map[Long, String]() // hop id -> local var (CSE inside the operator)
    def fresh(): String = { n += 1; s"${prefix}TMP$n" }
    def line(s: String): Unit = body.append("    ").append(s).append('\n')
    /** A vector temporary backed by a reused instance field (the paper's
      * per-thread ring buffer for row intermediates). */
    def buf(lenExpr: String): String = {
      val t = fresh()
      fields.append(s"  private double[] ${t}F;\n")
      line(s"if (${t}F == null || ${t}F.length != ($lenExpr)) ${t}F = new double[$lenExpr];")
      line(s"double[] $t = ${t}F;")
      t
    }
  }

  private def header(parent: String): String =
    "package repro.codegen;\nimport repro.runtime.MatrixBlock;\nimport repro.runtime.VectorPrims;\n" +
      s"public final class ${JavaBackend.ClassName} extends repro.runtime.$parent {\n"

  // ---------------------------------------------------------------- Cell

  private def cellSource(cplan: CPlan, chainRoot: Hop): String = {
    val src = new Src
    val root = emitCell(chainRoot, cplan, src)
    header("CellExec") +
      "  public double genexec(double a, MatrixBlock[] b, int rix, int cix) {\n" +
      src.body.toString +
      s"    return $root;\n  }\n}\n"
  }

  /** Emit SSA-style Java for a cell chain; returns the value expression. */
  private def emitCell(h: Hop, cplan: CPlan, src: Src): String = {
    val main = cplan.inputs(0)
    if (h eq main) return "a"
    src.memo.get(h.id).foreach(return _)
    val v =
      if (!cplan.covered.contains(h.id)) {
        val k = inputIndex(h, cplan)
        val t = src.fresh()
        src.line(s"double $t = b[$k].get(${sideIdx(h)});")
        t
      }
      else h match {
        case u: UnaryHop =>
          val x = emitCell(u.in, cplan, src)
          val t = src.fresh()
          src.line(s"double $t = ${unaryJava(u.op, x)};")
          t
        case bin: BinaryHop =>
          val x = emitCell(bin.left, cplan, src)
          val y = emitCell(bin.right, cplan, src)
          val t = src.fresh()
          src.line(s"double $t = ${binaryJava(bin.op, x, y)};")
          t
        case _ => throw new IllegalStateException(s"unsupported hop in Cell chain: $h")
      }
    src.memo(h.id) = v
    v
  }

  /** Broadcast-resolved (rix, cix) access for a side input. */
  private def sideIdx(h: Hop): String =
    if (h.rows == 1 && h.cols == 1) "0, 0"
    else if (h.cols == 1) "rix, 0"
    else if (h.rows == 1) "0, cix"
    else "rix, cix"

  // ----------------------------------------------------------------- Row

  private def rowSource(cplan: CPlan): String = {
    val variant = cplan.rowVariant.get
    val root = cplan.root

    val allFields = new StringBuilder
    def vecMethod(method: String, h: Hop): String = {
      val src = new Src(if (method == "genexecVec2") "X" else "Z")
      val r = emitRowVec(h, cplan, src)
      allFields.append(src.fields)
      s"  public double[] $method(double[] a, MatrixBlock[] b, int rix) {\n" +
        src.body.toString + s"    return $r;\n  }\n"
    }
    def scalarMethod(h: Hop): String = {
      val src = new Src("S")
      val r = emitRow(h, cplan, src) match {
        case Left(vecV) => // vector chain under a full aggregate
          val t = src.fresh()
          src.line(s"double $t = VectorPrims.vectSum($vecV);")
          t
        case Right(s) => s
      }
      allFields.append(src.fields)
      s"  public double genexecScalar(double[] a, MatrixBlock[] b, int rix) {\n" +
        src.body.toString + s"    return $r;\n  }\n"
    }

    val methods = variant match {
      case RowNoAgg | RowColAgg => vecMethod("genexecVec", cplan.chainRoot)
      case RowFullAgg => scalarMethod(cplan.chainRoot)
      case RowRowAgg  => scalarMethod(root)
      case RowColAggT =>
        val m = root.asInstanceOf[MatMulHop]
        vecMethod("genexecVec2", m.left) + vecMethod("genexecVec", m.right)
    }
    header("RowExec") + allFields.toString + methods + "}\n"
  }

  /** Emit a Row-chain node; Left(var) = vector, Right(expr) = scalar. */
  private def emitRow(h: Hop, cplan: CPlan, src: Src): Either[String, String] = {
    val main = cplan.inputs(0)
    val rowDim = cplan.rowDim
    if (h eq main) return Left("a")
    src.memo.get(h.id) match {
      case Some(v) => return if (v.startsWith("[]")) Left(v.drop(2)) else Right(v)
      case None =>
    }
    val result: Either[String, String] =
      if (!cplan.covered.contains(h.id)) {
          val k = inputIndex(h, cplan)
          if (h.rows == 1 && h.cols == 1) Right(s"b[$k].get(0, 0)")
          else if (h.rows == rowDim && h.cols == 1) Right(s"b[$k].get(rix, 0)")
          else if (h.rows == 1) {
            val t = src.buf(s"b[$k].cols()")
            src.line(s"b[$k].copyRow(0, $t);")
            Left(t)
          }
          else if (h.rows == rowDim) {
            val t = src.buf(s"b[$k].cols()")
            src.line(s"b[$k].copyRow(rix, $t);")
            Left(t)
          }
          else throw new IllegalStateException(s"non row-aligned side input in Row chain: $h")
      }
      else h match {
        case u: UnaryHop =>
          emitRow(u.in, cplan, src) match {
            case Right(x) => Right(unaryJava(u.op, x))
            case Left(xv) =>
              val t = src.buf(s"$xv.length")
              src.line(s"for (int i_ = 0; i_ < $t.length; i_++) $t[i_] = ${unaryJava(u.op, s"$xv[i_]")};")
              Left(t)
          }
        case bin: BinaryHop =>
          (emitRow(bin.left, cplan, src), emitRow(bin.right, cplan, src)) match {
            case (Right(x), Right(y)) => Right(binaryJava(bin.op, x, y))
            case (Left(xv), Right(y)) =>
              val sv = src.fresh()
              src.line(s"double $sv = $y;")
              val t = src.buf(s"$xv.length")
              src.line(s"for (int i_ = 0; i_ < $t.length; i_++) $t[i_] = ${binaryJava(bin.op, s"$xv[i_]", sv)};")
              Left(t)
            case (Right(x), Left(yv)) =>
              val sv = src.fresh()
              src.line(s"double $sv = $x;")
              val t = src.buf(s"$yv.length")
              src.line(s"for (int i_ = 0; i_ < $t.length; i_++) $t[i_] = ${binaryJava(bin.op, sv, s"$yv[i_]")};")
              Left(t)
            case (Left(xv), Left(yv)) =>
              val t = src.buf(s"$xv.length")
              src.line(s"for (int i_ = 0; i_ < $t.length; i_++) $t[i_] = ${binaryJava(bin.op, s"$xv[i_]", s"$yv[i_]")};")
              Left(t)
          }
        case a: AggHop if a.dir == RowDir =>
          emitRow(a.in, cplan, src) match {
            case Right(x) => Right(x) // rowSums of a per-row scalar is itself
            case Left(xv) =>
              val t = src.fresh()
              a.func match {
                case SumAgg => src.line(s"double $t = VectorPrims.vectSum($xv);")
                case MinAgg =>
                  src.line(s"double $t = Double.POSITIVE_INFINITY;")
                  src.line(s"for (int i_ = 0; i_ < $xv.length; i_++) $t = Math.min($t, $xv[i_]);")
                case MaxAgg =>
                  src.line(s"double $t = Double.NEGATIVE_INFINITY;")
                  src.line(s"for (int i_ = 0; i_ < $xv.length; i_++) $t = Math.max($t, $xv[i_]);")
              }
              Right(t)
          }
        case m: MatMulHop if !TemplateType.isTransposeLeftMatMul(m) =>
          val k = inputIndex(m.right, cplan)
          val scalarOut = m.right.cols == 1
          emitRow(m.left, cplan, src) match {
            case Left(lv) =>
              if (scalarOut) {
                val t = src.fresh()
                src.line(s"double $t = VectorPrims.dotProduct($lv, b[$k].toDense().values(), 0, 0, $lv.length);")
                Right(t)
              } else {
                val tb = src.buf(s"b[$k].cols()")
                src.line(s"VectorPrims.vectMatMultWrite($lv, b[$k].toDense().values(), $tb, $lv.length, b[$k].cols());")
                Left(tb)
              }
            case Right(x) => Right(s"($x * b[$k].get(0, 0))") // 1x1 chain times 1x1 rhs
          }
        case t: TransposeHop =>
          // structural transpose of a row source (read X rows directly)
          emitRow(t.in, cplan, src) match {
            case l @ Left(_) => l
            case r => r
          }
        case _ => throw new IllegalStateException(s"unsupported hop in Row chain: $h")
      }
    src.memo(h.id) = result match {
      case Left(v)  => "[]" + v
      case Right(e) => e
    }
    result
  }

  /** Emit a Row node that must be a vector (coerce scalars to length-1;
    * materialized transpose sides are read by column extraction). */
  private def emitRowVec(h: Hop, cplan: CPlan, src: Src): String = {
    // a materialized transpose side (t(X) read column-wise) needs extraction
    if (!cplan.covered.contains(h.id) && !h.isInstanceOf[LitHop] &&
        h.rows != cplan.rowDim && h.rows != 1) {
      val k = inputIndex(h, cplan)
      val t = src.buf(s"b[$k].rows()")
      src.line(s"for (int i_ = 0; i_ < $t.length; i_++) $t[i_] = b[$k].get(i_, rix);")
      return t
    }
    emitRow(h, cplan, src) match {
      case Left(v) => v
      case Right(x) =>
        val t = src.buf("1")
        src.line(s"$t[0] = $x;")
        t
    }
  }

  // --------------------------------------------------------------- Outer

  private def outerSource(cplan: CPlan): String = {
    val chainRoot = cplan.chainRoot
    val opening = CPlan.coveredHops(chainRoot, cplan.covered)
      .collectFirst { case m: MatMulHop if TemplateType.isOuterMatMul(m) => m }
      .getOrElse(throw new IllegalStateException("Outer plan without opening matmult"))

    val src = new Src
    src.line("int R_ = b[2].cols();") // rank, read from V at runtime
    val root = emitOuter(chainRoot, cplan, opening, src)
    header("OuterExec") +
      "  public double genexec(double x, double[] u, double[] v, MatrixBlock[] b, int rix, int cix) {\n" +
      src.body.toString +
      s"    return $root;\n  }\n}\n"
  }

  private def emitOuter(h: Hop, cplan: CPlan, opening: MatMulHop, src: Src): String = {
    val main = cplan.inputs(0)
    if (h eq main) return "x"
    src.memo.get(h.id).foreach(return _)
    val v =
      if (h eq opening) {
        val t = src.fresh()
        src.line(s"double $t = VectorPrims.dotProduct(u, v, rix * R_, cix * R_, R_);")
        t
      }
      else if (!cplan.covered.contains(h.id)) {
        val k = inputIndex(h, cplan)
        val t = src.fresh()
        src.line(s"double $t = b[$k].get(${sideIdx(h)});")
        t
      }
      else h match {
        case u: UnaryHop  => unaryJava(u.op, emitOuter(u.in, cplan, opening, src))
        case bn: BinaryHop =>
          binaryJava(bn.op,
            emitOuter(bn.left, cplan, opening, src),
            emitOuter(bn.right, cplan, opening, src))
        case t: TransposeHop => emitOuter(t.in, cplan, opening, src)
        case _ => throw new IllegalStateException(s"unsupported hop in Outer chain: $h")
      }
    src.memo(h.id) = v
    v
  }
}
