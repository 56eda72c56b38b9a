(** Flat int-array serialization for register codecs.

    Every builder exposes a codec turning its register state into a flat
    [int array] and back (see {!Protocol.CODEC} and SCALING.md). Fixed-
    width codecs (BFS, SPT, the ad-hoc baseline) write their fields
    directly and drive the packed engine; the variable-length MST/MDST
    states serialize through this module. Encodings are self-delimiting —
    options carry a 0/1 tag, arrays a length prefix — so decoding never
    needs out-of-band size information and [unpack (pack s) = s] is a
    structural round-trip (pinned by qcheck in test_packed). *)

(** {1 Writing} *)

(** A growable int buffer. *)
type writer

(** Fresh writer, with room for 16 words before it grows. *)
val writer : unit -> writer

(** Append one word. Amortized O(1). *)
val push : writer -> int -> unit

(** The encoded words, as a fresh exactly-sized array. *)
val contents : writer -> int array

(** {1 Reading} *)

(** A cursor over an encoded array. *)
type reader

val reader : int array -> reader

(** Consume one word. @raise Invalid_argument past the end. *)
val take : reader -> int

val at_end : reader -> bool

(** @raise Invalid_argument if words remain — decoders call this last so
    a codec that silently drops fields fails loudly in tests. *)
val expect_end : reader -> unit

(** {1 Composite encodings} *)

val push_bool : writer -> bool -> unit
val take_bool : reader -> bool

(** [Some x] is [1; encoding of x]; [None] is [0]. *)
val push_opt : writer -> (writer -> 'a -> unit) -> 'a option -> unit

val take_opt : reader -> (reader -> 'a) -> 'a option

(** Length-prefixed element sequence. *)
val push_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit

val take_array : reader -> (reader -> 'a) -> 'a array

val push_pair : writer -> int * int -> unit
val take_pair : reader -> int * int
