package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.compiler._
import repro.dist._
import repro.runtime._
import repro.runtime.Ops._

/** Materialized matrix value: driver-local block or distributed blocks. */
sealed trait MatrixData {
  def rows: Long
  def cols: Long
  def sparsity: Double
  def toLocal: MatrixBlock
  /** Left for distributed blocks, Right for a local block. */
  def either: Either[DistMatrix, MatrixBlock] = this match { case DistData(dm) => Left(dm); case LocalData(b) => Right(b) }
}
final case class LocalData(block: MatrixBlock) extends MatrixData {
  def rows: Long = block.rows
  def cols: Long = block.cols
  def sparsity: Double = block.sparsity
  def toLocal: MatrixBlock = block
}
final case class DistData(dm: DistMatrix) extends MatrixData {
  def rows: Long = dm.rows
  def cols: Long = dm.cols
  def sparsity: Double = dm.sparsity
  def toLocal: MatrixBlock = DistOps.toLocal(dm)
}

/** Execution mode: the five systems compared in the paper's evaluation. */
sealed trait ExecMode { def label: String }
case object BaseMode  extends ExecMode { val label = "Base" }  // basic operators only
case object FusedMode extends ExecMode { val label = "Fused" } // + hand-coded fused operators
final case class GenMode(policy: Policy) extends ExecMode {
  val label: String = policy match {
    case CostBased        => "Gen"
    case FuseAll          => "Gen-FA"
    case FuseNoRedundancy => "Gen-FNR"
  }
}

/** Lazy matrix expression: builds the HOP DAG; `ctx.eval` compiles and
  * executes one DAG at a time (SystemML's statement-block granularity,
  * re-invoked each loop iteration like dynamic recompilation). */
final class MX(val hop: Hop)(implicit ctx: ExecContext) {
  private def mx(h: Hop): MX = new MX(h)

  def %*%(o: MX): MX = mx(new MatMulHop(hop, o.hop))
  def +(o: MX): MX = mx(new BinaryHop(Plus, hop, o.hop))
  def -(o: MX): MX = mx(new BinaryHop(Minus, hop, o.hop))
  def *(o: MX): MX = mx(new BinaryHop(Mult, hop, o.hop))
  def /(o: MX): MX = mx(new BinaryHop(Div, hop, o.hop))
  def +(d: Double): MX = mx(new BinaryHop(Plus, hop, new LitHop(d)))
  def -(d: Double): MX = mx(new BinaryHop(Minus, hop, new LitHop(d)))
  def *(d: Double): MX = mx(new BinaryHop(Mult, hop, new LitHop(d)))
  def /(d: Double): MX = mx(new BinaryHop(Div, hop, new LitHop(d)))
  def ^(p: Double): MX =
    if (p == 2.0) mx(new UnaryHop(Pow2, hop)) else mx(new BinaryHop(Pow, hop, new LitHop(p)))
  def >(d: Double): MX = mx(new BinaryHop(Gt, hop, new LitHop(d)))
  def <(d: Double): MX = mx(new BinaryHop(Lt, hop, new LitHop(d)))
  def >=(d: Double): MX = mx(new BinaryHop(Ge, hop, new LitHop(d)))
  def <=(d: Double): MX = mx(new BinaryHop(Le, hop, new LitHop(d)))
  def eqv(o: MX): MX = mx(new BinaryHop(Eq, hop, o.hop))
  def min(o: MX): MX = mx(new BinaryHop(MinOp, hop, o.hop))
  def max(o: MX): MX = mx(new BinaryHop(MaxOp, hop, o.hop))
  def unary_- : MX = mx(new UnaryHop(Neg, hop))

  def t: MX = mx(new TransposeHop(hop))
  def exp: MX = mx(new UnaryHop(Exp, hop))
  def log: MX = mx(new UnaryHop(Log, hop))
  def sqrt: MX = mx(new UnaryHop(Sqrt, hop))
  def abs: MX = mx(new UnaryHop(Abs, hop))
  def sign: MX = mx(new UnaryHop(Sign, hop))
  def sigmoid: MX = mx(new UnaryHop(Sigmoid, hop))
  def neq0: MX = mx(new UnaryHop(Neq0, hop))

  def sum: MX = mx(new AggHop(SumAgg, FullDir, hop))
  def rowSums: MX = mx(new AggHop(SumAgg, RowDir, hop))
  def colSums: MX = mx(new AggHop(SumAgg, ColDir, hop))
  def rowMins: MX = mx(new AggHop(MinAgg, RowDir, hop))
  def rowMaxs: MX = mx(new AggHop(MaxAgg, RowDir, hop))
  def minAll: MX = mx(new AggHop(MinAgg, FullDir, hop))
  def maxAll: MX = mx(new AggHop(MaxAgg, FullDir, hop))

  def sliceRows(from: Long, toExcl: Long): MX = mx(new RowSliceHop(hop, from, toExcl))

  /** Evaluate this expression (one-root DAG). */
  def eval(): MatrixData = ctx.eval(Seq(this)).head
}

object MX {
  /** Scalar literal helpers for `lit - X` style expressions. */
  def lit(d: Double)(implicit ctx: ExecContext): MX = new MX(new LitHop(d))
}

/** Per-DAG compile + execute driver. Owns leaf bindings, the execution
  * mode (Base / Fused / Gen variants), the cost configuration, and the
  * optional SparkSession for distributed data. */
final class ExecContext(
    val mode: ExecMode,
    val cfg: CostConfig = CostConfig(),
    val spark: Option[SparkSession] = None,
    val blockSize: Int = 1024,
) {
  implicit private val self: ExecContext = this
  private[core] val bindings = mutable.Map[Long, MatrixData]()

  /** Bind materialized data as a DAG leaf. */
  def bind(name: String, data: MatrixData): MX = {
    val leaf = new LeafHop(name, data.rows, data.cols, data.sparsity,
      forceDistributed = data.isInstanceOf[DistData])
    bindings(leaf.id) = data
    new MX(leaf)
  }
  def bindLocal(name: String, b: MatrixBlock): MX = bind(name, LocalData(b))
  def bindDist(name: String, dm: DistMatrix): MX = bind(name, DistData(dm))

  /** Distribute a local block (helper for large-scale experiments); the
    * result is persisted and the caller releases it via `dm.unpersist()`. */
  def distribute(b: MatrixBlock): DistData =
    DistData(DistOps.fromLocal(spark.getOrElse(sys.error("no SparkSession bound")), b, blockSize))

  /** Compile and execute one DAG with the configured mode; returns the
    * materialized value of every root. */
  def eval(roots: Seq[MX]): Seq[MatrixData] = {
    val hops = roots.map(_.hop)
    val plan = compilePlan(hops)
    Executor.run(plan, hops, this)
  }

  /** Plan an execution for the given DAG roots (exposed for tests). */
  def compilePlan(hops: Seq[Hop]): ExecPlan = mode match {
    case BaseMode  => ExecPlan(ExecPlan.build(hops)(_ => None))
    case FusedMode => HandCoded.plan(hops)
    case GenMode(policy) =>
      val t0 = System.nanoTime()
      CodegenStats.dagsOptimized.incrementAndGet()
      val memo = Explorer.explore(hops)
      val plan = Selector.select(hops, memo, policy, cfg)
      CodegenStats.codegenNanos.addAndGet(System.nanoTime() - t0)
      plan
  }
}

/** Executes an [[ExecPlan]]: basic operators through the local/distributed
  * kernels, fused operators through code generation of their CPlans (with
  * the class cache) and the template skeletons.
  *
  * A distributed intermediate read by two or more operators of the plan is
  * persisted for the duration of one `run`, so its lineage is computed
  * once; every Dataset the run persisted is released when it ends, also
  * when an operator throws. Leaves belong to their creator and are never
  * persisted or released here. */
object Executor {

  def run(plan: ExecPlan, roots: Seq[Hop], ctx: ExecContext): Seq[MatrixData] = {
    val values = mutable.Map[Long, MatrixData]()
    val consumers = mutable.Map[Long, Int]().withDefaultValue(0)
    plan.ops.foreach(_.inputs.foreach(h => consumers(h.id) += 1))
    val rootIds = roots.map(_.id).toSet
    val persisted = mutable.ArrayBuffer[Dataset[BlockRow]]()
    try {
      plan.ops.foreach { op =>
        executeOp(op, values, ctx)
        op.outputs.filter(h => consumers(h.id) > 1 && !rootIds(h.id)).foreach { h =>
          values(h.id) match {
            // a Dataset whose plan Spark's cache manager matches to a
            // cached one is not this run's to persist or release
            case DistData(dm) if dm.ds.storageLevel == StorageLevel.NONE => persisted += dm.ds.persist()
            case _ =>
          }
        }
      }
      roots.map(valueOf(_, values, ctx))
    } finally persisted.foreach(_.unpersist())
  }

  /** Plan intermediates first, then the context's leaf bindings. */
  private def valueOf(h: Hop, values: mutable.Map[Long, MatrixData], ctx: ExecContext): MatrixData = h match {
    case l: LitHop => LocalData(MatrixBlock.dense(1, 1, Array(l.value)))
    case _ => values.getOrElse(h.id, ctx.bindings.getOrElse(h.id,
      throw new IllegalStateException(s"$h not materialized")))
  }

  /** Keep distributed only when above the configured memory budget —
    * mirrors [[CostModel.isDistributedHop]] so costs match execution. */
  private def place(h: Hop, data: MatrixData, ctx: ExecContext): MatrixData = data match {
    case DistData(dm) if !CostModel.isDistributedHop(h, ctx.cfg) =>
      LocalData(DistOps.toLocal(dm))
    case d => d
  }

  private def executeOp(op: POp, values: mutable.Map[Long, MatrixData], ctx: ExecContext): Unit = op match {
    case basic @ PBasic(h, inputs) =>
      values(h.id) = place(h, Basic.execute(basic, inputs.map(valueOf(_, values, ctx))), ctx)
    case PFused(cplan) =>
      val res = executeFused(cplan, values, ctx)
      cplan.roots match {
        case Seq(root) => values(root.id) = place(root, res, ctx)
        case roots => // multi-aggregate: a 1 x k result, one value per root
          val b = res.toLocal
          roots.zipWithIndex.foreach { case (r, k) =>
            values(r.id) = LocalData(MatrixBlock.dense(1, 1, Array(b.get(0, k))))
          }
      }
    case h: PHandCoded =>
      values(h.root.id) = place(h.root, HandCoded.execute(h, h.inputs.map(valueOf(_, values, ctx)), ctx), ctx)
  }

  /** Compile the operator's CPlan (counted in the codegen statistics),
    * then run it over the plan's inputs. */
  private def executeFused(cplan: CPlan, values: mutable.Map[Long, MatrixData], ctx: ExecContext): MatrixData = {
    val t0 = System.nanoTime()
    CodegenStats.cplansConstructed.incrementAndGet()
    val spoof = Codegen.compile(cplan)
    CodegenStats.codegenNanos.addAndGet(System.nanoTime() - t0)
    val datas = cplan.inputs.map(valueOf(_, values, ctx))
    datas.head match {
      // all-local execution; small distributed sides are collected
      case LocalData(_) => LocalData(spoof.execute(datas.map(_.toLocal)))
      case DistData(_) => DistTemplates.execute(spoof, cplan, datas.map(_.either)).fold(DistData, LocalData)
    }
  }
}

/** Basic (unfused) operator execution with local/distributed dispatch —
  * the physical operator layer underneath every execution mode. */
object Basic {

  /** Runs `op` over the values of its inputs. The local kernels read
    * dense and sparse blocks: a compressed local input is decompressed
    * once, here, except for a full or column sum, which its dictionaries
    * answer. */
  def execute(op: PBasic, inputs: Seq[MatrixData]): MatrixData = (op.hop, inputs) match {
    case (a: AggHop, Seq(LocalData(c: CompressedBlock))) if a.func == SumAgg && a.dir != RowDir =>
      val colSums = c.colSums
      LocalData(if (a.dir == ColDir) colSums else MatrixBlock.dense(1, 1, Array(colSums.values.sum)))
    case _ => executeOp(op, inputs.map {
      case LocalData(c: CompressedBlock) => LocalData(c.toDense)
      case d                             => d
    })
  }

  private def executeOp(op: PBasic, inputs: Seq[MatrixData]): MatrixData = op.hop match {
    case u: UnaryHop => inputs.head match {
      case LocalData(b) => LocalData(LocalOps.unary(u.op, b))
      case DistData(dm) => DistData(DistOps.unary(u.op, dm))
    }
    case b: BinaryHop => executeBinary(b, inputs(0), inputs(1))
    case m: MatMulHop if !(op.inputs.head eq m.left) => (inputs(0), inputs(1)) match {
      // t(Y) %*% Z over Y itself (PBasic.of): no transposed copy of Y
      case (LocalData(y), LocalData(z)) => LocalData(LocalOps.matmulTransposeLeft(y, z))
      case (y, z)                       => LocalData(DistOps.matmulTransposeLeft(y.either, z.either))
    }
    case _: MatMulHop => executeMatMul(inputs(0), inputs(1))
    case _: TransposeHop => inputs.head match {
      case LocalData(b) => LocalData(LocalOps.transpose(b))
      case DistData(dm) => DistData(DistOps.transpose(dm))
    }
    case a: AggHop => inputs.head match {
      case LocalData(b) => LocalData(LocalOps.agg(a.func, a.dir, b))
      case DistData(dm) => a.dir match {
        case FullDir => LocalData(DistOps.fullAgg(a.func, dm))
        case ColDir  => LocalData(DistOps.colAgg(a.func, dm))
        case RowDir  => DistData(DistOps.rowAgg(a.func, dm))
      }
    }
    case r: RowSliceHop => inputs.head match {
      case LocalData(b) => LocalData(LocalOps.rowSlice(b, r.from.toInt, r.toExcl.toInt))
      case DistData(_)  => throw new UnsupportedOperationException("distributed row slicing not needed by the workloads")
    }
    case other => throw new UnsupportedOperationException(s"basic op $other")
  }

  private def executeBinary(b: BinaryHop, l: MatrixData, r: MatrixData): MatrixData = (l, r) match {
    case (LocalData(lb), LocalData(rb)) =>
      if (b.scalarLeft) LocalData(LocalOps.binaryScalarLeft(b.op, lb.get(0, 0), rb))
      else LocalData(LocalOps.binary(b.op, lb, rb))
    case (DistData(ld), DistData(rd)) => DistData(DistOps.binaryDistDist(b.op, ld, rd))
    case (DistData(ld), LocalData(rb)) => DistData(DistOps.binaryDistLocal(b.op, ld, rb))
    case (LocalData(lb), DistData(rd)) =>
      if (b.scalarLeft) DistData(DistOps.binaryScalarLeft(b.op, lb.get(0, 0), rd))
      else DistData(DistOps.binaryLocalDist(b.op, lb, rd))
  }

  private def executeMatMul(l: MatrixData, r: MatrixData): MatrixData = (l, r) match {
    case (LocalData(lb), LocalData(rb)) => LocalData(LocalOps.matmul(lb, rb))
    case (DistData(ld), LocalData(rb))  => DistData(DistOps.matmulDistLocal(ld, rb))
    case (LocalData(lb), DistData(rd))  => LocalData(DistOps.matmulLocalDist(lb, rd))
    case (DistData(ld), DistData(rd)) =>
      throw new UnsupportedOperationException(
        s"unsupported operator: matmult of two distributed operands, ${ld.rows}x${ld.cols} %*% ${rd.rows}x${rd.cols}")
  }
}
