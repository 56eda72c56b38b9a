module Json = Metrics.Json

type ('w, 'r) kind =
  | Int : (int, int) kind
  | Str : (string, string) kind
  | Bool : (bool, bool) kind
  | Enum : string list -> (string, string) kind
  | Opt : [ `Null | `Omit ] * ('w, 'r) kind -> ('w option, 'r option) kind
      (** how [None] is written; either way absent or [null] reads [None] *)
  | List : ('w, 'r) kind -> ('w list, 'r list) kind
  | Pair : ('w, 'r) kind -> ('w * 'w, 'r * 'r) kind
  | Obj : 'w t -> ('w, Json.t) kind

and ('a, 'w, 'r) field = { name : string; kind : ('w, 'r) kind; get : 'a -> 'w }
and 'a entry = F : ('a, 'w, 'r) field -> 'a entry
and 'a t = 'a entry list

let field name kind get = { name; kind; get }
let int = Int
let string = Str
let bool = Bool
let enum values = Enum values
let nullable k = Opt (`Null, k)
let optional k = Opt (`Omit, k)
let list k = List k
let pair k = Pair k
let obj d = Obj d

let rec encode : type w r. (w, r) kind -> w -> Json.t =
 fun kind v ->
  match kind with
  | Int -> Json.Int v
  | Str -> Json.Str v
  | Enum _ -> Json.Str v
  | Bool -> Json.Bool v
  | Opt (_, k) -> ( match v with Some x -> encode k x | None -> Json.Null)
  | List k -> Json.List (List.map (encode k) v)
  | Pair k ->
      let a, b = v in
      Json.List [ encode k a; encode k b ]
  | Obj d -> to_json d v

and members : type a. a t -> a -> (string * Json.t) list =
 fun d x ->
  let member (F { name; kind; get }) =
    match (kind, get x) with
    | Opt (`Omit, _), None -> None
    | _, v -> Some (name, encode kind v)
  in
  List.filter_map member d

and to_json : type a. a t -> a -> Json.t = fun d x -> Json.Obj (members d x)

let rec noun : type w r. (w, r) kind -> string = function
  | Int -> "int"
  | Str | Enum _ -> "string"
  | Bool -> "bool"
  | List _ -> "list"
  | Pair k -> noun k ^ " pair"
  | Obj _ -> "object"
  | Opt (_, k) -> noun k ^ " or null"

let describe k =
  let n = noun k in
  (if n.[0] = 'i' || n.[0] = 'o' then "an " else "a ") ^ n

(* A present value of the wrong JSON type is reported by the caller,
   which knows whether it is a field ("is not an int") or a list
   element ("contains a non-int"). *)
type failure = Wrong_type | Invalid of string

let rec decode : type w r. string -> (w, r) kind -> Json.t -> (r, failure) result =
 fun name kind v ->
  match (kind, v) with
  | Int, Json.Int i -> Ok i
  | Str, Json.Str s -> Ok s
  | Bool, Json.Bool b -> Ok b
  | Enum values, Json.Str s ->
      if List.mem s values then Ok s
      else Error (Invalid (Printf.sprintf "unknown %s %S" name s))
  | Opt _, Json.Null -> Ok None
  | Opt (_, k), v -> Result.map Option.some (decode name k v)
  | List k, Json.List items -> elements name k items
  | Pair k, Json.List [ a; b ] ->
      Result.bind (decode name k a) (fun x -> Result.map (fun y -> (x, y)) (decode name k b))
  | Obj d, v -> (
      match check d v with Ok () -> Ok v | Error m -> Error (Invalid m))
  | _ -> Error Wrong_type

and elements : type w r. string -> (w, r) kind -> Json.t list -> (r list, failure) result =
 fun name kind items ->
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | v :: tl -> (
        match decode name kind v with
        | Ok x -> go (i + 1) (x :: acc) tl
        | Error Wrong_type ->
            Error (Invalid (Printf.sprintf "field %S contains a non-%s" name (noun kind)))
        | Error (Invalid m) ->
            let item = String.sub name 0 (String.length name - 1) in
            Error (Invalid (Printf.sprintf "%s %d: %s" item i m)))
  in
  go 0 [] items

and read : type a w r. (a, w, r) field -> Json.t -> (r, string) result =
 fun { name; kind; _ } j ->
  match (kind, Json.member name j) with
  | Opt _, None -> Ok None
  | _, None -> Error (Printf.sprintf "missing field %S" name)
  | _, Some v -> (
      match decode name kind v with
      | Ok x -> Ok x
      | Error Wrong_type -> Error (Printf.sprintf "field %S is not %s" name (describe kind))
      | Error (Invalid m) -> Error m)

and check : type a. a t -> Json.t -> (unit, string) result =
 fun d j ->
  List.fold_left
    (fun acc (F f) -> Result.bind acc (fun () -> Result.map ignore (read f j)))
    (Ok ()) d

let sniff contents =
  let first_line =
    match String.index_opt contents '\n' with
    | Some i -> String.sub contents 0 i
    | None -> contents
  in
  let categorize j =
    if Json.member "ev" j <> None then Some `Trace
    else if Json.member "experiments" j <> None then Some `Bench
    else if Json.member "cells" j <> None then
      (* Chaos and service artifacts both lead with cells; the service
         meta header is the one that names its churn traces. *)
      match Json.member "meta" j with
      | Some meta when Json.member "traces" meta <> None -> Some `Service
      | _ -> Some `Chaos
    else None
  in
  match Json.of_string (String.trim first_line) with
  | Some j -> categorize j
  | None -> Option.bind (Json.of_string (String.trim contents)) categorize
