(* The BENCH_repro.json artifact, declared once (Repro_runtime.Artifact):
   {seed, experiments}, one record per engine run an experiment
   performs. bench/main.exe writes it ([to_json]), `repro_cli validate`
   checks it ([validate]) and bench-diff reads it ([Fields],
   [experiments]). *)

open Repro_runtime

type t = {
  exp : string;
  algo : string;
  n : int;
  tier : string;
      (* one of [Campaign.tiers]: "std" for the pinned repro experiments,
         "big" for the scaling tier (SCALING.md); optional on read, so
         records from before the tier existed still validate *)
  rounds : int;
  steps : int;
  max_bits : int;
  wall_ns : int;  (* wall-clock time inside the worker that ran the cell *)
}

type artifact = { seed : int; records : t list }

(* The record fields bench-diff reads; [record] lists them in place. *)
module Fields = struct
  open Artifact

  let exp = field "exp" string (fun r -> r.exp)
  let algo = field "algo" string (fun r -> r.algo)
  let n = field "n" int (fun r -> r.n)
  let rounds = field "rounds" int (fun r -> r.rounds)
  let steps = field "steps" int (fun r -> r.steps)
  let max_bits = field "max_bits" int (fun r -> r.max_bits)
  let wall_ns = field "wall_ns" int (fun r -> r.wall_ns)
end

let record : t Artifact.t =
  Artifact.
    [
      F Fields.exp;
      F Fields.algo;
      F Fields.n;
      F (field "tier" (optional (enum Repro_campaign.Campaign.tiers)) (fun r -> Some r.tier));
      F Fields.rounds;
      F Fields.steps;
      F Fields.max_bits;
      F Fields.wall_ns;
    ]

let experiments = Artifact.(field "experiments" (list (obj record)) (fun a -> a.records))
let artifact = Artifact.[ F (field "seed" int (fun a -> a.seed)); F experiments ]
let to_json ~seed records = Artifact.to_json artifact { seed; records }

(* [Ok records] or the first violation, e.g. [experiment 2: unknown tier
   "huge"]. *)
let validate j =
  Result.bind (Artifact.check artifact j) (fun () ->
      Result.map List.length (Artifact.read experiments j))
