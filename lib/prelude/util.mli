(** Small general-purpose helpers shared across the libraries. *)

(** [most_common ~equal xs] is [Some (x, count)] for a value with the highest
    multiplicity in [xs] (first such value in list order wins ties), or
    [None] when [xs] is empty. O(n²); inputs are per-round inboxes, which
    are small. *)
val most_common : equal:('a -> 'a -> bool) -> 'a list -> ('a * int) option

(** [count ~equal x xs] is the multiplicity of [x] in [xs]. *)
val count : equal:('a -> 'a -> bool) -> 'a -> 'a list -> int

(** [strict_majority ~equal ~total xs] is [Some x] when some value occurs
    strictly more than [total / 2] times in [xs]. *)
val strict_majority : equal:('a -> 'a -> bool) -> total:int -> 'a list -> 'a option

(** [group_by ~key ~equal_key xs] groups consecutive-or-not elements by key,
    preserving first-seen key order and element order within groups.

    One pass: [key] is called exactly once per element and groups are
    found through a hash table, so the cost is O(n) calls to [key] plus
    expected O(n) hashes and [equal_key] tests. Keys are hashed with
    [Hashtbl.hash], so [equal_key] must agree with structural hashing:
    keys it calls equal must have equal [Hashtbl.hash]. Structural
    equalities such as [String.equal] and [Int.equal] qualify. *)
val group_by : key:('a -> 'k) -> equal_key:('k -> 'k -> bool) -> 'a list -> ('k * 'a list) list

(** [range a b] is [[a; a+1; ...; b-1]] ([[]] when [a >= b]). *)
val range : int -> int -> int list

(** [is_permutation xs ~n] checks that [xs] is a permutation of
    [0 .. n-1]. *)
val is_permutation : int list -> n:int -> bool

(** Ceiling division [a / b] for positive [b]. *)
val cdiv : int -> int -> int

(** [take n xs] is the first [n] elements of [xs] (all of them if shorter). *)
val take : int -> 'a list -> 'a list

(** [find_index p xs] is the position of the first element satisfying [p]. *)
val find_index : ('a -> bool) -> 'a list -> int option

(** [pp_comma_list pp] prints a list separated by [", "]. *)
val pp_comma_list :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a list -> unit
