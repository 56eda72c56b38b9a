(* Flat int-array serialization helpers shared by the per-builder
   register codecs (see Protocol.CODEC and SCALING.md). The writer is a
   growable int buffer; the reader is a cursor over the encoded array.
   Encodings are self-delimiting: options carry a 0/1 tag, arrays a
   length prefix, so [unpack (pack s) = s] holds structurally. *)

type writer = { mutable buf : int array; mutable len : int }

let writer () = { buf = Array.make 16 0; len = 0 }

let push w x =
  if w.len = Array.length w.buf then begin
    let bigger = Array.make (2 * Array.length w.buf) 0 in
    Array.blit w.buf 0 bigger 0 w.len;
    w.buf <- bigger
  end;
  w.buf.(w.len) <- x;
  w.len <- w.len + 1

let contents w = Array.sub w.buf 0 w.len

type reader = { data : int array; mutable pos : int }

let reader data = { data; pos = 0 }

let take r =
  if r.pos >= Array.length r.data then invalid_arg "Codec.take: past end";
  let x = r.data.(r.pos) in
  r.pos <- r.pos + 1;
  x

let at_end r = r.pos = Array.length r.data

let expect_end r =
  if not (at_end r) then invalid_arg "Codec.expect_end: trailing words"

(* Composite encodings. *)

let push_bool w b = push w (if b then 1 else 0)
let take_bool r = take r <> 0

let push_opt w f = function
  | None -> push w 0
  | Some x ->
      push w 1;
      f w x

let take_opt r f = if take r <> 0 then Some (f r) else None

let push_array w f a =
  push w (Array.length a);
  Array.iter (fun x -> f w x) a

let take_array r f =
  let len = take r in
  if len < 0 then invalid_arg "Codec.take_array: negative length";
  Array.init len (fun _ -> f r)

let push_pair w (a, b) =
  push w a;
  push w b

let take_pair r =
  let a = take r in
  let b = take r in
  (a, b)
