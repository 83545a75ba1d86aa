let rank ~n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    s.(max 0 (min (n - 1) (rank ~n p - 1)))
  end

let median xs = percentile xs 50.
let beyond ~n p = n - rank ~n p

type tail = {
  pct : float;
  value : float;
  samples : int;
  enough : bool;
}

let ladder = List.init 50 (fun i -> float_of_int (50 + i)) @ [ 99.9; 99.99 ]

let tail xs =
  let n = Array.length xs in
  let pct =
    List.fold_left (fun best p -> if beyond ~n p >= 10 then p else best) 50. ladder
  in
  { pct; value = percentile xs pct; samples = n; enough = beyond ~n 50. >= 10 }

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. xs /. float_of_int n
