(** The builder registry: every construction the CLI, the chaos
    matrix and the service matrix can run, declared once.

    An entry carries the builder's {!Repro_runtime.Protocol.S} module,
    its parent projection when it builds a tree (what service mode
    needs), its fixed-width {!Repro_runtime.Protocol.PACKED} codec when
    it has one, whether its potential Φ is cheap enough to watch, and
    the one-line result note [repro_cli run] prints. Callers look
    builders up here instead of matching on names.

    {b Engine selection} ({!run}, {!serve}, {!engine}, which the chaos
    campaign uses). A run takes the
    struct-of-arrays engine ({!Repro_runtime.Engine_packed},
    {!Repro_service.Service.Make_packed}) iff the entry has a codec,
    and the boxed engine otherwise. Both run the same executor loop
    with the same hooks, and the equivalence suites pin them to
    identical results and event traces, so the choice changes wall time
    only. *)

open Repro_graph
open Repro_runtime
module Service = Repro_service.Service

(** {2 The tree builders}

    Each wraps the builder's protocol with its parent projection. The
    distance layers (BFS, SPT, ad-hoc BFS) repair by re-parenting
    freely and may transiently cycle; the PLS layer inside MST/MDST
    moves one loop-free edge swap at a time, so those two arm the
    service's loop monitor. The fixed-width three include their packed
    codec, so one module drives both service engines. *)

module Bfs_tree :
  Service.PACKED_TREE_PROTOCOL with type state = Repro_core.St_layer.t

module Spt_tree :
  Service.PACKED_TREE_PROTOCOL with type state = Repro_core.Spt_builder.state

module Adhoc_tree :
  Service.PACKED_TREE_PROTOCOL with type state = Repro_baselines.Adhoc_bfs.state

module Mst_tree : Service.TREE_PROTOCOL with type state = Repro_core.Mst_builder.state
module Mdst_tree : Service.TREE_PROTOCOL with type state = Repro_core.Mdst_builder.state

(** {2 Entries} *)

type 's entry = {
  name : string;
  protocol : (module Protocol.S with type state = 's);
  tree : (module Service.TREE_PROTOCOL with type state = 's) option;
      (** the parent projection; [None] for builders outside service mode *)
  packed : (module Service.PACKED_TREE_PROTOCOL with type state = 's) option;
      (** the fixed-width codec (every packed builder is a tree) *)
  cheap_phi : bool;
      (** Φ feeds the watchdog's stall detector and per-round trace
          records only when this is set: the MST potential runs the
          certification prover, and ad-hoc BFS is not potential-guided,
          so a Φ plateau there is no evidence of a stall *)
  note : adversarial:bool -> Graph.t -> 's array -> string;
      (** the [result] line of [repro_cli run] on a final configuration *)
}

type t = Builder : 's entry -> t

val bfs : t
val mst : t
val mdst : t
val spt : t
val adhoc_bfs : t
val compact_mst : t
val fullinfo_mst : t
val fullinfo_mdst : t

(** Every builder, in the order [repro_cli list] prints them. *)
val all : t list

(** The default campaign builders of [chaos] and [serve]: bfs, mst, spt. *)
val flagship : t list

val name : t -> string
val find : string -> t option

(** Has a parent projection, so [serve] can run it. *)
val serves : t -> bool

(** Has a fixed-width codec, so it can run on the packed engine. *)
val packed : t -> bool

val cheap_phi : t -> bool

(** [describe b] — the name plus its capabilities, e.g.
    ["bfs (serve, packed)"], for [repro_cli list] and help texts. *)
val describe : t -> string

(** [engine e] — the executor the engine-selection rule picks for [e]:
    {!Repro_runtime.Engine_packed} iff [e] has a codec, else the boxed
    {!Repro_runtime.Engine.Make}. {!run} and the chaos campaign use it. *)
val engine : 's entry -> (module Engine.S with type state = 's)

(** {2 One run} *)

type outcome = {
  algo : string;
  silent : bool;
  legal : bool;
  rounds : int;
  steps : int;
  max_bits : int;
  note : string;
  verdict : string option;
      (** the observe-only watchdog's classification of a non-silent
          exit (livelock vs bare exhaustion); [None] when silent *)
  injected : bool;  (** faults were injected after a silent first run *)
}

(** [run b g sched rng ~adversarial ~max_rounds] — stabilize [b] once
    from the designated (or, with [adversarial], an arbitrary)
    configuration, with an observe-only watchdog attached. [faults]
    [k > 0] corrupts [k] registers after a silent first run and runs
    again from there; a non-silent first run skips the injection
    ([injected = false]). [events] records the whole invocation — first
    run, [Fault] events, recovery run — into one sink on one timeline
    (the recovery run's rounds and steps follow the first run's), so
    recovery moves chain back to the injection and the sink's series
    spans both runs.

    Runs on the packed engine iff [b] has a codec (see the
    engine-selection rule above). *)
val run :
  ?events:Events.t ->
  ?faults:int ->
  adversarial:bool ->
  max_rounds:int ->
  t ->
  Graph.t ->
  Scheduler.t ->
  Random.State.t ->
  outcome

(** {2 One service episode} *)

(** [serve b g ~sched ~fallback rng trace] — one
    {!Repro_service.Service} episode of tree builder [b] ([events] as
    in {!Repro_service.Service.Make.run}), on the packed
    service engine iff [b] has a codec — episode-equivalent either way.
    The watchdog runs with its default thresholds and watches Φ only
    when [cheap_phi b].
    @raise Invalid_argument if [b] has no parent projection. *)
val serve :
  ?events:Events.t ->
  t ->
  Graph.t ->
  sched:Scheduler.t ->
  fallback:Scheduler.t ->
  Random.State.t ->
  Repro_service.Churn.t ->
  Service.report
