module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
        else Buffer.add_string buf "null"
    | Str s -> escape_to buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    write buf j;
    Buffer.contents buf

  let to_channel oc j =
    output_string oc (to_string j);
    output_char oc '\n'

  exception Bad

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise Bad in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c = if peek () = c then advance () else raise Bad in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char buf '"'; advance ()
            | '\\' -> Buffer.add_char buf '\\'; advance ()
            | '/' -> Buffer.add_char buf '/'; advance ()
            | 'n' -> Buffer.add_char buf '\n'; advance ()
            | 'r' -> Buffer.add_char buf '\r'; advance ()
            | 't' -> Buffer.add_char buf '\t'; advance ()
            | 'b' -> Buffer.add_char buf '\b'; advance ()
            | 'f' -> Buffer.add_char buf '\012'; advance ()
            | 'u' ->
                advance ();
                (* Exactly four hex digits — [int_of_string "0x…"] would
                   also accept underscores. *)
                let hex4 () =
                  if !pos + 4 > n then raise Bad;
                  let v = ref 0 in
                  for i = !pos to !pos + 3 do
                    let d =
                      match s.[i] with
                      | '0' .. '9' as c -> Char.code c - Char.code '0'
                      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                      | _ -> raise Bad
                    in
                    v := (!v * 16) + d
                  done;
                  pos := !pos + 4;
                  !v
                in
                let code = hex4 () in
                let code =
                  if code >= 0xD800 && code <= 0xDBFF then begin
                    (* High surrogate: a low surrogate escape must follow. *)
                    if !pos + 2 > n || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u' then
                      raise Bad;
                    pos := !pos + 2;
                    let low = hex4 () in
                    if low < 0xDC00 || low > 0xDFFF then raise Bad;
                    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                  end
                  else if code >= 0xDC00 && code <= 0xDFFF then raise Bad
                  else code
                in
                Buffer.add_utf_8_uchar buf (Uchar.of_int code)
            | _ -> raise Bad);
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && is_num s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with Some f -> Float f | None -> raise Bad)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> Str (parse_string ())
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin advance (); List [] end
          else begin
            let acc = ref [ parse_value () ] in
            skip_ws ();
            while peek () = ',' do
              advance ();
              acc := parse_value () :: !acc;
              skip_ws ()
            done;
            expect ']';
            List (List.rev !acc)
          end
      | '{' ->
          advance ();
          skip_ws ();
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          if peek () = '}' then begin advance (); Obj [] end
          else begin
            let acc = ref [ field () ] in
            skip_ws ();
            while peek () = ',' do
              advance ();
              acc := field () :: !acc;
              skip_ws ()
            done;
            expect '}';
            Obj (List.rev !acc)
          end
      | _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then raise Bad;
      v
    with
    | v -> Some v
    | exception Bad -> None

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end
