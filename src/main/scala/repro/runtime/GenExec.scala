package repro.runtime

import org.codehaus.commons.compiler.CompileException
import org.codehaus.janino.SimpleCompiler
import scala.collection.concurrent.TrieMap

/** Abstract genexec signatures implemented by generated operators — the
  * analogue of SystemML's SpoofCellwise/SpoofRowwise/SpoofOuterProduct
  * genexec methods (paper §2.2). Primitive signatures avoid any boxing in
  * the per-value hot path; generated Java subclasses get fully JIT-inlined.
  */
abstract class CellExec extends Serializable {
  def genexec(a: Double, b: Array[MatrixBlock], rix: Int, cix: Int): Double
}
/** One row of a Row operator, read in place: the generated code computes
  * the row's result and writes or adds it into the skeleton's output `c`
  * as its variant says (paper §2.2). */
abstract class RowExec extends Serializable {
  /** Dense main row a[ai, ai + len). */
  def genexec(a: Array[Double], ai: Int, b: Array[MatrixBlock], c: Array[Double], rix: Int, len: Int): Unit
  /** Sparse main row: the alen non-zeros avals/aix[apos, apos + alen) of a
    * row of len columns. */
  def genexec(avals: Array[Double], aix: Array[Int], apos: Int, alen: Int,
              b: Array[MatrixBlock], c: Array[Double], rix: Int, len: Int): Unit
}
abstract class OuterExec extends Serializable {
  def genexec(x: Double, u: Array[Double], v: Array[Double],
              b: Array[MatrixBlock], rix: Int, cix: Int): Double
}

/** A serializable reference to a generated genexec: its Java source. The
  * distributed runtime ships operators to executors, where `get` compiles
  * the source once per JVM through the class cache. */
final case class ExecRef[T <: AnyRef](source: String) {
  /** Generated classes carry reusable row buffers, so each thread gets its
    * own instance. */
  def get: T = JavaBackend.threadInstance(source).asInstanceOf[T]
}

/** In-memory compilation of generated operators with janino, as in the
  * paper (§2.1, Fig. 11): janino ships in Spark's jars and needs no JDK.
  * Compiled classes are cached per JVM, keyed by their source, and
  * instances per thread. */
object JavaBackend {

  /** Every generated class is `repro.codegen.GenOp`, each defined in its
    * own class loader, so its source alone identifies it. */
  val ClassName = "GenOp"

  private val classCache = TrieMap[String, Class[_]]()
  /** Bumped by `clearCache`; a thread's instances from an older generation
    * are dropped, so no thread keeps running (and holding) cleared classes. */
  @volatile private var generation = 0L

  /** Forget every compiled class (tests and benchmarks, between runs). */
  def clearCache(): Unit = synchronized { classCache.clear(); generation += 1 }

  private final class Instances(val generation: Long) extends java.util.HashMap[String, AnyRef]
  private val threadInsts = new ThreadLocal[Instances]
  /** Per-thread instance (generated operators hold per-row ring buffers). */
  def threadInstance(source: String): AnyRef = {
    var m = threadInsts.get()
    if (m == null || m.generation != generation) {
      m = new Instances(generation)
      threadInsts.set(m)
    }
    var inst = m.get(source)
    if (inst == null) {
      load(source)
      inst = classCache(source).getDeclaredConstructor().newInstance().asInstanceOf[AnyRef]
      m.put(source, inst)
    }
    inst
  }

  /** Make `source`'s class available; true iff this call compiled it.
    * Exactly one of several concurrent callers with the same new source
    * compiles it. */
  def load(source: String): Boolean =
    !classCache.contains(source) && synchronized {
      !classCache.contains(source) && { classCache.put(source, doCompile(source)); true }
    }

  /** What generated code may see: the JDK, through the platform loader
    * (which also resolves the `jdk.internal.*` classes that the JDK's
    * generated reflection accessors use), and this JVM's `repro.runtime`
    * and `scala` classes. Nothing else of the application classpath. */
  private object RuntimeClasses extends ClassLoader(ClassLoader.getPlatformClassLoader) {
    private val app = JavaBackend.getClass.getClassLoader
    override def loadClass(name: String, resolve: Boolean): Class[_] =
      if (name.startsWith("repro.runtime.") || name.startsWith("scala.")) app.loadClass(name)
      else super.loadClass(name, resolve)
  }

  private def doCompile(source: String): Class[_] = {
    val compiler = new SimpleCompiler
    compiler.setParentClassLoader(RuntimeClasses)
    try compiler.cook(source)
    catch {
      case e: CompileException =>
        throw new IllegalStateException(
          s"janino failed to compile a generated operator:\n${e.getMessage}\n--- source ---\n$source")
    }
    compiler.getClassLoader.loadClass(s"repro.codegen.$ClassName")
  }
}
