package repro
import repro.runtime.{CellExec, ExecRef, JavaBackend}
class BackendActiveSpec extends SparkSpec {
  private def cellSource(body: String) =
    s"""package repro.codegen;
      |public final class ${JavaBackend.ClassName} extends repro.runtime.CellExec {
      |  public double genexec(double a, repro.runtime.MatrixBlock[] b, int rix, int cix) { $body }
      |}
      |""".stripMargin

  test("Java codegen backend is active") {
    val gx = ExecRef[CellExec](cellSource("return a + 1.0;")).get
    assert(gx.genexec(2.0, Array.empty, 0, 0) == 3.0)
  }

  test("javac sees only the runtime's classes; a failed compile is not cached") {
    val bad = cellSource("return org.apache.spark.SparkContext.class.hashCode();")
    for (_ <- 1 to 2) {
      val e = intercept[IllegalStateException](JavaBackend.load(bad))
      assert(e.getMessage.contains("javac failed") && e.getMessage.contains(bad))
    }
    val gx = ExecRef[CellExec](cellSource("return a * 4.0;")).get
    assert(gx.genexec(2.0, Array.empty, 0, 0) == 8.0)
  }

  test("after clearCache a thread gets an instance of the recompiled class") {
    val ref = ExecRef[CellExec](cellSource("return a - 5.0;"))
    val before = ref.get.getClass
    JavaBackend.clearCache()
    assert(JavaBackend.load(ref.source), "a cleared source must be compiled again")
    val after = ref.get
    assert(after.getClass ne before)
    assert(after.genexec(7.0, Array.empty, 0, 0) == 2.0)
  }
}
