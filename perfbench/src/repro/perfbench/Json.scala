package repro.perfbench

/** Minimal JSON writer for the result and trace files (maps keep their
  * insertion order when given a LinkedHashMap). */
object Json {
  def write(v: Any): String = {
    val sb = new StringBuilder
    put(sb, v)
    sb.toString
  }

  private def put(sb: StringBuilder, v: Any): Unit = v match {
    case null | None => sb.append("null")
    case Some(x) => put(sb, x)
    case s: String => str(sb, s)
    case b: Boolean => sb.append(b)
    case d: Double => sb.append(if (d.isNaN || d.isInfinite) "null" else d.toString)
    case n: Int => sb.append(n)
    case n: Long => sb.append(n)
    case m: collection.Map[_, _] =>
      sb.append('{')
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb.append(',')
        first = false
        str(sb, k.toString); sb.append(':'); put(sb, x)
      }
      sb.append('}')
    case xs: Iterable[_] =>
      sb.append('[')
      var first = true
      xs.foreach { x => if (!first) sb.append(','); first = false; put(sb, x) }
      sb.append(']')
    case other => str(sb, other.toString)
  }

  private def str(sb: StringBuilder, s: String): Unit = {
    sb.append('"')
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"')
  }
}
