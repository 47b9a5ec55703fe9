(** Scaled dataset presets mirroring Table 1's D100/D200/D300 progression
    (laptop-scale; see DESIGN.md). [Small]/[Mid]/[Large] grow the current
    state while keeping a comparable pending set, exactly the axis of
    Fig. 6h; [sweep] is a [Mid]-sized economy with a long pending tail
    for the pending-transaction sweep of Fig. 6c/d. *)

type preset = Small | Mid | Large

val name : preset -> string

val preset_of_string : string -> (preset, string) result
(** ["small"], ["mid"] or ["large"]; anything else is refused with a
    message naming the three. *)

val params : preset -> Generator.params
val sweep_params : Generator.params
(** Mid-sized state with 50 pending blocks. *)

val default_contradictions : int
(** The paper's default: 20. *)

type stats = {
  blocks : int;
  transactions : int;
  input_rows : int;
  output_rows : int;
}

val state_stats : Generator.sim -> stats
val pending_stats : Generator.sim -> pending_take:int -> contradictions:int -> stats

val paper : unit -> Bccore.Bcdb.t
(** The paper's running example (Figure 2): the state [R] of Example 1's
    schema and the five pending transactions labelled [T1] .. [T5]. *)
