open Bsm_prelude
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto
module SM = Bsm_stable_matching
module Core = Bsm_core
module Frame = Bsm_serve.Frame
module Schedule = Bsm_chaos.Schedule

let per_call ~iters f =
  let once () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  Pstats.median (Array.init 5 (fun _ -> once ()))

let us s = s *. 1e6
let ms s = s *. 1e3

let random_string rng n = String.init (max 1 n) (fun _ -> Char.chr (Rng.int rng 256))

(* The chaos vocabulary's schedule shapes (one of each constructor the
   standard grid uses), aimed at R0 of a k = 8 roster. *)
let vocabulary () =
  let r0 = Party_id.right 0 in
  let rest = List.filter (fun p -> not (Party_id.equal p r0)) (Party_id.all ~k:8) in
  [
    Schedule.send_omission ~rate:0.4 r0;
    Schedule.receive_omission ~rate:0.4 r0;
    Schedule.crash r0 ~at_round:1;
    Schedule.partition ~from_round:1 ~until_round:4 [ r0 ] rest;
    Schedule.bernoulli ~rate:0.15;
    Schedule.corrupt ~rate:0.3 ~kind:Bsm_chaos.Mutation.Bit_flip r0;
    Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1;
  ]

let all ~seed ~k ~msg_bytes ~inbox ~auth =
  let rng = Rng.make seed in
  let pki = Crypto.Pki.setup ~k ~seed in
  let signer = Crypto.Pki.signer pki (Party_id.left 0) in
  let verifier = Crypto.Pki.verifier pki in
  let msg = random_string rng msg_bytes in
  let signature = Crypto.Signer.sign signer msg in
  let sign = per_call ~iters:20_000 (fun () -> Crypto.Signer.sign signer msg) in
  let verify =
    per_call ~iters:20_000 (fun () ->
        Crypto.Verifier.verify verifier ~signer:(Party_id.left 0) ~msg signature)
  in
  let relay =
    Core.Channels.Request
      {
        src = Party_id.left 0;
        dst = Party_id.left 1;
        vround = 3;
        id = 17;
        body = random_string rng msg_bytes;
        signature = (if auth then Some signature else None);
      }
  in
  let relay_bytes = Wire.encode Core.Channels.relay_codec relay in
  let relay_encode = per_call ~iters:20_000 (fun () -> Wire.encode Core.Channels.relay_codec relay) in
  let relay_decode =
    per_call ~iters:20_000 (fun () -> Wire.decode Core.Channels.relay_codec relay_bytes)
  in
  let spec =
    { Frame.req_id = 1; workload = Frame.Gs { k = 64; seed; family = SM.Flat.Uniform } }
  in
  let done_ =
    Frame.Done
      { req_id = 1; outcome = Frame.Matched { fingerprint = 0x1234_5678L; rounds = 9 };
        arrival_tick = 3; done_tick = 5 }
  in
  let frame_codec =
    per_call ~iters:20_000 (fun () ->
        let q = Wire.decode_exn Frame.request_codec (Wire.encode Frame.request_codec (Frame.Submit spec)) in
        let r = Wire.decode_exn Frame.response_codec (Wire.encode Frame.response_codec done_) in
        q, r)
  in
  (* One majority sync: [inbox] forwards of [k] distinct bodies, grouped
     by their encoding as the majority vote keys them. *)
  let bodies = Array.init k (fun _ -> random_string rng msg_bytes) in
  let forwards = List.init (max 1 inbox) (fun i -> i, bodies.(i mod k)) in
  let group_by =
    per_call ~iters:200 (fun () ->
        Util.group_by
          ~key:(fun (_, b) -> Wire.encode Wire.string b)
          ~equal_key:String.equal forwards)
  in
  let profile = SM.Profile.random rng k in
  let gs = per_call ~iters:200 (fun () -> SM.Gale_shapley.run profile) in
  let flat = SM.Flat.make ~family:SM.Flat.Uniform ~seed ~k:64 in
  let l2r, _ = SM.Flat.gale_shapley flat in
  let flat_gs = per_call ~iters:200 (fun () -> SM.Flat.gale_shapley flat) in
  let verify_flat =
    per_call ~iters:200 (fun () -> SM.Verify.exists_blocking (SM.Flat.verify_view flat ~l2r))
  in
  let schedules = vocabulary () in
  let compile =
    per_call ~iters:200 (fun () -> List.map (Schedule.compile ~seed) schedules)
    /. float_of_int (List.length schedules)
  in
  [
    "crypto.sign_us", us sign, "us";
    "crypto.verify_us", us verify, "us";
    "wire.relay_encode_us", us relay_encode, "us";
    "wire.relay_decode_us", us relay_decode, "us";
    "wire.frame_codec_us", us frame_codec, "us";
    "util.group_by_ms", ms group_by, "ms";
    "gale_shapley.ms", ms gs, "ms";
    "gale_shapley.flat_ms", ms flat_gs, "ms";
    "verify.ms", ms verify_flat, "ms";
    "schedule.compile_us", us compile, "us";
  ]
