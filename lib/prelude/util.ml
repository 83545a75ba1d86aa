let count ~equal x xs =
  List.fold_left (fun acc y -> if equal x y then acc + 1 else acc) 0 xs

let most_common ~equal xs =
  let better best x =
    let c = count ~equal x xs in
    match best with
    | Some (_, c') when c' >= c -> best
    | Some _ | None -> Some (x, c)
  in
  List.fold_left better None xs

let strict_majority ~equal ~total xs =
  match most_common ~equal xs with
  | Some (x, c) when 2 * c > total -> Some x
  | Some _ | None -> None

let group_by (type k) ~(key : _ -> k) ~equal_key xs =
  let module Tbl = Hashtbl.Make (struct
    type t = k

    let equal = equal_key
    let hash = Hashtbl.hash
  end) in
  let groups = Tbl.create 16 in
  (* Groups in reverse first-seen order, members of each in reverse. *)
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Tbl.find_opt groups k with
      | Some members -> members := x :: !members
      | None ->
        let members = ref [ x ] in
        Tbl.add groups k members;
        order := (k, members) :: !order)
    xs;
  List.rev_map (fun (k, members) -> k, List.rev !members) !order

let range a b = if a >= b then [] else List.init (b - a) (fun i -> a + i)

let is_permutation xs ~n =
  List.length xs = n
  &&
  let seen = Array.make n false in
  List.for_all
    (fun x ->
      x >= 0 && x < n
      &&
      if seen.(x) then false
      else begin
        seen.(x) <- true;
        true
      end)
    xs

let cdiv a b = (a + b - 1) / b

let rec take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

let find_index p xs =
  let rec go i = function
    | [] -> None
    | x :: xs -> if p x then Some i else go (i + 1) xs
  in
  go 0 xs

let pp_comma_list pp ppf xs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp ppf xs
