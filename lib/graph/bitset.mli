(** Fixed-capacity mutable bitsets over [0 .. n-1]. Shared by the clique
    enumerator and by the core library's possible-world representation
    (a world is the bitset of included pending transactions). *)

type t

val create : int -> t
(** All-zero bitset of the given capacity. *)

val capacity : t -> int
val copy : t -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val mem_any : t -> int array -> bool
(** [mem_any t a]: some element of [a] is a member of [t]. Elements
    outside [0 .. capacity - 1] count as absent rather than raising. *)

val is_empty : t -> bool

val resize : t -> int -> t
(** [resize t m] is a fresh bitset of capacity [m] holding the members
    of [t] below [m]. A whole-word copy: O(m / 32). *)

val remove_shift : t -> int -> t
(** [remove_shift t j] is a fresh bitset of capacity [capacity t - 1]:
    [j] is dropped and every member above [j] shifts down by one (the
    dense re-id of a pending-set removal). Word shifts: O(n / 32). *)

val cardinal : t -> int
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is true when every member of [a] is in [b]. *)

val inter : t -> t -> t
(** Fresh bitset; operands must have equal capacity. *)

val union : t -> t -> t
val diff : t -> t -> t

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] is [cardinal (inter a b)] without the
    intermediate allocation. *)

val inter_into : t -> t -> unit
(** [inter_into a b] narrows [a] to [inter a b] in place. *)

val max_by : bound:int -> t -> (int -> int) -> int * int
(** [max_by ~bound cand score] is [(u, score u)] for the member [u] of
    [cand] maximizing [score] — the clique enumerator's Tomita pivot
    score |P ∩ N(u)|. Ties resolve to the smallest member; [(-1, -1)]
    when [cand] is empty.

    The scan runs over [cand] in ascending order and stops at the first
    member whose score reaches [bound], returning that member and its
    score. When [bound] is an upper bound on every score (the clique
    enumerator passes [|P| - 1] for members of P, [|P|] for members of
    X), that member is the smallest argmax, so the result is exactly
    the full scan's; the scan just ends as soon as the bound proves no
    later member can do better. *)

val iter : (int -> unit) -> t -> unit

val iter_diff : (int -> unit) -> t -> t -> unit
(** [iter_diff f a b] applies [f] to every member of [a] not in [b], in
    ascending order, without materializing the difference. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val choose_opt : t -> int option
(** Smallest member, if any. *)

val of_list : int -> int list -> t
val to_list : t -> int list
val full : int -> t
(** [full n] contains all of [0 .. n-1]. *)

val pp : Format.formatter -> t -> unit
