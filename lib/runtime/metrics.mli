(** The repository's one JSON writer and parser ({!Json}), with no
    external serialization dependency: the artifacts, the metrics
    series and the {!Events} trace lines all go through it. *)

(** Minimal JSON tree with a writer and a strict parser — the parser
    exists so tests (and downstream tooling) can round-trip the writer's
    output without a third-party library. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (** Compact rendering (single line, RFC 8259 string escaping).
      Non-finite floats render as [null]. *)
  val to_string : t -> string

  val to_channel : out_channel -> t -> unit

  (** Strict recursive-descent parser; [None] on any syntax error or
      trailing garbage. Handles everything {!to_string} emits — quotes,
      backslashes and control characters round-trip byte-exactly — plus
      the full [\uXXXX] escape grammar of external producers: exactly
      four hex digits, arbitrary BMP code points (UTF-8 encoded into the
      result), and surrogate pairs for the astral planes; lone
      surrogates and malformed digits are rejected. *)
  val of_string : string -> t option

  (** [member key j] — field lookup when [j] is an [Obj]. *)
  val member : string -> t -> t option
end
