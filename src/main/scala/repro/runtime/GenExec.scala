package repro.runtime

import java.io.ByteArrayOutputStream
import java.net.URI
import javax.tools._
import scala.collection.concurrent.TrieMap
import scala.jdk.CollectionConverters._

/** Abstract genexec signatures implemented by generated operators — the
  * analogue of SystemML's SpoofCellwise/SpoofRowwise/SpoofOuterProduct
  * genexec methods (paper §2.2). Primitive signatures avoid any boxing in
  * the per-value hot path; generated Java subclasses get fully JIT-inlined.
  */
abstract class CellExec extends Serializable {
  def genexec(a: Double, b: Array[MatrixBlock], rix: Int, cix: Int): Double
}
abstract class RowExec extends Serializable {
  /** Vector-rooted variants (NO_AGG, COL_AGG, z-side of COL_AGG_B1_T). */
  def genexecVec(a: Array[Double], b: Array[MatrixBlock], rix: Int): Array[Double] = null
  /** Scalar-rooted variants (ROW_AGG, FULL_AGG). */
  def genexecScalar(a: Array[Double], b: Array[MatrixBlock], rix: Int): Double = 0.0
  /** The x-side row of COL_AGG_B1_T (t(X) %*% Z). */
  def genexecVec2(a: Array[Double], b: Array[MatrixBlock], rix: Int): Array[Double] = null
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

/** In-memory Java compilation of generated operators — the paper's javac
  * path (Fig. 11; janino is not available offline, javac ships with the
  * JDK). Compiled classes are cached per JVM, keyed by their source, and
  * instances per thread. */
object JavaBackend {

  /** Every generated class is `repro.codegen.GenOp`, each defined in its
    * own class loader, so its source alone identifies it. */
  val ClassName = "GenOp"

  private lazy val compiler: JavaCompiler = {
    val c = ToolProvider.getSystemJavaCompiler
    if (c == null)
      throw new IllegalStateException(
        "no system Java compiler: code generation requires a JDK (with javac), not a JRE")
    c
  }

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

  /** Make `source`'s class available; true iff this call ran javac for it.
    * Exactly one of several concurrent callers with the same new source
    * compiles it. */
  def load(source: String): Boolean =
    !classCache.contains(source) && synchronized {
      !classCache.contains(source) && { classCache.put(source, doCompile(source)); true }
    }

  private final class MemSource(name: String, code: String)
    extends SimpleJavaFileObject(URI.create(s"string:///repro/codegen/$name.java"), JavaFileObject.Kind.SOURCE) {
    override def getCharContent(ignore: Boolean): CharSequence = code
  }
  private final class MemClass(name: String)
    extends SimpleJavaFileObject(URI.create(s"mem:///$name.class"), JavaFileObject.Kind.CLASS) {
    val bytes = new ByteArrayOutputStream()
    override def openOutputStream(): ByteArrayOutputStream = bytes
  }

  // one standard file manager per JVM — a fresh one per compile would
  // reopen (and leak) every classpath jar
  private lazy val stdFm: StandardJavaFileManager =
    compiler.getStandardFileManager(null, null, null)

  /** javac's classpath: where the `repro.runtime` supertypes and helpers of
    * generated code live, plus scala-library, which their class files
    * reference. Not this JVM's whole classpath: under Spark that holds
    * hundreds of jars, and javac would open and index every one of them. */
  private lazy val javacClasspath: String =
    Seq(classOf[CellExec], classOf[Option[_]]).map(codeSource).mkString(java.io.File.pathSeparator)

  private def codeSource(c: Class[_]): String = {
    val cs = c.getProtectionDomain.getCodeSource
    if (cs == null || cs.getLocation == null)
      throw new IllegalStateException(
        s"cannot locate the code source of ${c.getName}, which javac needs on its classpath")
    java.nio.file.Paths.get(cs.getLocation.toURI).toString
  }

  private def doCompile(source: String): Class[_] = {
    val diag = new DiagnosticCollector[JavaFileObject]()
    val outputs = TrieMap[String, MemClass]()
    val fm = new ForwardingJavaFileManager[JavaFileManager](stdFm) {
      override def getJavaFileForOutput(location: JavaFileManager.Location, name: String,
                                        kind: JavaFileObject.Kind, sibling: FileObject): JavaFileObject = {
        val mc = new MemClass(name)
        outputs(name) = mc
        mc
      }
    }
    val options = List("-classpath", javacClasspath).asJava
    val task = compiler.getTask(null, fm, diag, options, null,
      List[JavaFileObject](new MemSource(ClassName, source)).asJava)
    if (!task.call())
      throw new IllegalStateException(
        "javac failed:\n" + diag.getDiagnostics.asScala.mkString("\n") + "\n--- source ---\n" + source)
    val parent = getClass.getClassLoader
    val loader = new ClassLoader(parent) {
      override def findClass(name: String): Class[_] =
        outputs.get(name) match {
          case Some(mc) =>
            val bs = mc.bytes.toByteArray
            defineClass(name, bs, 0, bs.length)
          case None => throw new ClassNotFoundException(name)
        }
    }
    loader.loadClass(s"repro.codegen.$ClassName")
  }
}
