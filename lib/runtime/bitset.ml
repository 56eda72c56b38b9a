(* 32 bits per word: [v lsr 5] / [v land 31] keep every shift in range
   of OCaml's 63-bit native int on 64-bit platforms. *)

type t = { words : int array; capacity : int; mutable card : int }

let words_for n = (n + 31) lsr 5

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make (max 1 (words_for n)) 0; capacity = n; card = 0 }

let capacity t = t.capacity
let cardinal t = t.card
let is_empty t = t.card = 0

let mem t v = t.words.(v lsr 5) land (1 lsl (v land 31)) <> 0

let add t v =
  let w = v lsr 5 and b = 1 lsl (v land 31) in
  let old = t.words.(w) in
  if old land b = 0 then begin
    t.words.(w) <- old lor b;
    t.card <- t.card + 1
  end

let remove t v =
  let w = v lsr 5 and b = 1 lsl (v land 31) in
  let old = t.words.(w) in
  if old land b <> 0 then begin
    t.words.(w) <- old land lnot b;
    t.card <- t.card - 1
  end

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.card <- 0

(* Set bits of a 32-bit word, SWAR: pair, nibble and byte sums, then the
   byte sums gathered into the top byte by one multiply. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  ((x * 0x0101_0101) lsr 24) land 0xFF

(* Index of a 32-bit power of two: multiplying by the de Bruijn
   sequence 0x077CB531 puts a distinct 5-bit window in the top bits of
   the low 32, and the table maps each window back to its shift. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index b = debruijn.(((b * 0x077C_B531) land 0xFFFF_FFFF) lsr 27)

let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let bits = ref words.(w) in
    while !bits <> 0 do
      let b = !bits land - !bits in
      f ((w lsl 5) lor bit_index b);
      bits := !bits lxor b
    done
  done

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

(* Whole words are skipped by popcount; inside the word that holds the
   answer, the [k] lower members are cleared one by one. *)
let nth t k =
  if k < 0 || k >= t.card then invalid_arg "Bitset.nth";
  let w = ref 0 and k = ref k in
  while popcount t.words.(!w) <= !k do
    k := !k - popcount t.words.(!w);
    incr w
  done;
  let bits = ref t.words.(!w) in
  for _ = 1 to !k do
    bits := !bits land (!bits - 1)
  done;
  (!w lsl 5) lor bit_index (!bits land - !bits)

let copy_from ~src ~dst =
  if src.capacity <> dst.capacity then invalid_arg "Bitset.copy_from";
  Array.blit src.words 0 dst.words 0 (Array.length src.words);
  dst.card <- src.card

let words t = t.words

let set_word t w x =
  let old = t.words.(w) in
  if old <> x then begin
    t.words.(w) <- x;
    t.card <- t.card + popcount x - popcount old
  end

let recount t =
  let card = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    card := !card + popcount t.words.(w)
  done;
  t.card <- !card

let inter_inplace t other =
  if t.capacity <> other.capacity then invalid_arg "Bitset.inter_inplace";
  let card = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    let x = t.words.(w) land other.words.(w) in
    t.words.(w) <- x;
    card := !card + popcount x
  done;
  t.card <- !card
