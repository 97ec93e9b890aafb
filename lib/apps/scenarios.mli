(** Deterministic reproductions of the paper's worked scenarios on the
    actual protocol implementations (not just the parsed histories).

    Each scenario shapes link latencies and process timing so the
    interleaving the paper describes is the one that happens, then returns
    the recorded execution for checking. *)

type fig3_result = {
  f3_history : Dsm_memory.History.t;
  f3_causal_ok : bool;  (** must be [false]: broadcast memory violates *)
  f3_pram_ok : bool;  (** must be [true]: it is still PRAM *)
  f3_final_x : Dsm_memory.Value.t array;  (** per-node final value of [x] *)
}

val fig3_broadcast : ?mode:Dsm_broadcast.Cbcast.mode -> unit -> fig3_result
(** Run the write-via-causal-broadcast memory through Figure 3's schedule:
    [P1: w(x)5 w(y)3 / P2: w(x)2 r(y)3 r(x)5 w(z)4 / P3: r(z)4 r(x)2].
    With causal delivery the concurrent writes of [x] land in different
    orders at P2 and P3 and the final read violates causal memory. *)

type fig5_result = {
  f5_history : Dsm_memory.History.t;
  f5_causal_ok : bool;  (** must be [true] *)
  f5_sc_ok : bool;  (** must be [false]: the execution is weakly consistent *)
}

val fig5_owner_protocol : unit -> fig5_result
(** Run the owner protocol (P1 owning [x], P2 owning [y]) through Figure 5's
    schedule and confirm the protocol admits this weakly consistent
    execution, as Section 3.1 claims. *)

type board_result = {
  br_early_posts : int;  (** posts the reader sees while the parent's
                             transport to it is still in flight *)
  br_early_orphans : int;  (** orphan replies at that moment (zero on causal
                               memory and causal delivery) *)
  br_final_posts : int;  (** posts after everything quiesces *)
  br_final_orphans : int;
}

val board_on_causal_dsm : unit -> board_result
(** The reply-overtakes-parent schedule on the owner-protocol causal DSM:
    the parent is always resolvable (zero orphans). *)

val board_on_broadcast : mode:Dsm_broadcast.Cbcast.mode -> board_result
(** The same schedule on replica-per-node broadcast memory: with [`Causal]
    delivery the reply is held back until its parent arrives (zero
    orphans); with [`Fifo] delivery the reply overtakes the parent across
    senders and the reader sees an orphan. *)

type stale_install_result = {
  si_history : Dsm_memory.History.t;
  si_causal_ok : bool;  (** [true] with the guard; the literal pseudocode
                            would record a violating history here *)
  si_stale_drops : int;  (** how many fetched entries the guard refused to
                             cache (>= 1 when the race fired) *)
}

val stale_install_race : ?config:Dsm_causal.Config.t -> unit -> stale_install_result
(** Drive the protocol through the stale-install race the model checker
    found in Figure 4's literal pseudocode: node P1 (owner of [x]) has a
    read of [y] in flight while it certifies a write of [x] whose causal
    past contains newer writes of [y]; the late reply must not be retained.
    With the guard the recorded history is causally correct and
    [si_stale_drops >= 1]; see DESIGN.md, "Findings".  [config] (default
    {!Dsm_causal.Config.default}) lets a test run it under the
    [Figure4_literal] mutation, which drops the guard. *)

type dictionary_race_result = {
  dr_delete_outcome : [ `Deleted | `Rejected | `Not_found ];
  dr_items_at_owner : string list;  (** owner's view after the dust settles *)
  dr_history_causal_ok : bool;
}

val dictionary_race : policy:Dsm_causal.Policy.t -> dictionary_race_result
(** Section 4.2's race: P0 inserts ["a"], P1 sees it, P0 deletes ["a"] and
    re-inserts ["b"] into the same cell, then P1's stale delete of ["a"]
    arrives.  Under [Owner_favored] the delete is rejected and ["b"]
    survives; under [Last_writer_wins] the delete clobbers ["b"] — the
    ablation that justifies the paper's resolution rule. *)
