external thread_cpu : unit -> float = "perfbench_thread_cpu"
external process_cpu : unit -> float = "perfbench_process_cpu"

let nominal_ms = 10.

(* The kernel's working set, one per domain so that lanes sampling at
   once share nothing: an 8 Ki-slot open-addressing table, a sort array,
   a byte ring, and 16 MB to stream through. *)
type arena = {
  keys : int array;
  counts : int array;
  sorted : int array;
  ring : Bytes.t;
  stream : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

let slots = 8192

let arena =
  Domain.DLS.new_key (fun () ->
      let stream = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
      Bigarray.Array1.fill stream 1;
      { keys = Array.make slots (-1); counts = Array.make slots 0; sorted = Array.make 20_000 0;
        ring = Bytes.create 65_536; stream })

let rec quicksort (a : int array) lo hi =
  if lo < hi then begin
    let p = a.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    quicksort a lo !j;
    quicksort a !i hi
  end

let tables { keys; counts; sorted; ring; _ } =
  Array.fill keys 0 slots (-1);
  Array.fill counts 0 slots 0;
  let acc = ref 0 in
  for i = 0 to 60_000 do
    let k = (i * 7919) land 4095 in
    let h = ref ((k * 0x9E3779B1) land (slots - 1)) in
    while keys.(!h) <> -1 && keys.(!h) <> k do
      h := (!h + 1) land (slots - 1)
    done;
    keys.(!h) <- k;
    counts.(!h) <- counts.(!h) + 1;
    Bytes.unsafe_set ring (i land 65_535) (Char.unsafe_chr (k land 255));
    if k land 7 = 3 then acc := !acc + counts.(!h) else acc := !acc lxor k
  done;
  for i = 0 to Array.length sorted - 1 do
    sorted.(i) <- (i * 104_729) land 65_535
  done;
  quicksort sorted 0 (Array.length sorted - 1);
  let c = ref 0 in
  for i = 0 to Bytes.length ring - 1 do
    c := !c + Char.code (Bytes.unsafe_get ring i)
  done;
  !acc + sorted.(100) + !c

let streamed { stream; _ } =
  let s = ref 0 in
  for _ = 1 to 2 do
    for i = 0 to Bigarray.Array1.dim stream - 1 do
      s := !s + Bigarray.Array1.unsafe_get stream i
    done
  done;
  !s

let kernel a = tables a + tables a + streamed a

(* The first sample of a burst finds the kernel's arrays out of cache
   and runs about 1.4x slower than the rest, so samples always come in
   bursts of the same size: the median then sees the same mix of cold
   and warm samples however the bursts are spaced. *)
let burst_ms () =
  let a = Domain.DLS.get arena in
  List.init 4 (fun _ ->
      let t0 = thread_cpu () in
      ignore (Sys.opaque_identity (kernel a));
      (thread_cpu () -. t0) *. 1e3)

let times = ref []
let count = ref 0
let last = ref Float.neg_infinity

let reset () =
  times := [];
  count := 0;
  last := Float.neg_infinity

let record ms =
  times := List.rev_append ms !times;
  count := !count + List.length ms;
  last := Unix.gettimeofday ()

let burst () = record (burst_ms ())
let due () = Unix.gettimeofday () -. !last >= 0.5
let sample_due () = if due () then burst ()
let mark () = !count
let since m = List.filteri (fun i _ -> i < !count - m) !times
let ref_ms_since m = Pstats.median (Array.of_list (since m))
let samples_since m = !count - m
