open Bsm_prelude
module Wire = Bsm_wire.Wire

let src = Logs.Src.create "bsm.engine" ~doc:"synchronous round engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* The round core's types ([payload], [envelope], [state_cell], [link],
   [fault_model], [metrics]) and fault-model constructors; engine.mli
   re-exports them and hides the rest of [Round]. *)
include Round

type env = {
  self : Party_id.t;
  k : int;
  round : unit -> int;
  send : Party_id.t -> payload -> unit;
  send_w : 'a. 'a Wire.t -> Party_id.t -> 'a -> unit;
  send_slice : Party_id.t -> Wire.Slice.t -> unit;
  send_multi_w : 'a. 'a Wire.t -> Party_id.t list -> 'a -> unit;
  next_round : unit -> envelope list;
  output : payload -> unit;
  log : string -> unit;
  register_state : 'a. 'a Wire.t -> 'a ref -> unit;
  register_cell : state_cell -> unit;
}

let broadcast_w env c targets v =
  env.send_multi_w c
    (List.filter (fun p -> not (Party_id.equal p env.self)) targets)
    v

type program = env -> unit

type event = {
  event_round : int;
  event_src : Party_id.t;
  event_dst : Party_id.t;
  event_bytes : int;
  event_fate : [ `Delivered | `No_channel | `Omitted | `Corrupted | `Scrambled ];
  event_label : string option;
}

let pp_event ppf e =
  let fate =
    match e.event_fate with
    | `Delivered -> "delivered"
    | `No_channel -> "no-channel"
    | `Omitted -> "omitted"
    | `Corrupted -> "corrupted"
    | `Scrambled -> "scrambled"
  in
  Format.fprintf ppf "r%d %a -> %a (%dB, %s%s)" e.event_round Party_id.pp e.event_src
    Party_id.pp e.event_dst e.event_bytes fate
    (match e.event_label with
    | None -> ""
    | Some l -> ": " ^ l)

type config = {
  k : int;
  link : link;
  max_rounds : int;
  faults : fault_model;
  trace_limit : int;
}

let config ?(max_rounds = 10_000) ?(faults = no_faults) ?(trace_limit = 0) ~k ~link () =
  if k <= 0 then invalid_arg "Engine.config: k must be positive";
  { k; link; max_rounds; faults; trace_limit }

type status =
  | Terminated
  | Out_of_rounds
  | Crashed of string

type party_result = {
  id : Party_id.t;
  status : status;
  out : payload option;
  finished_round : int option;
}

type result = {
  parties : party_result list;
  metrics : metrics;
  trace : event list;
}

(* --- Trace log --------------------------------------------------------- *)

(* The first [trace_limit] events, newest first; reversed once when the
   run returns. *)
type trace_log = {
  t_limit : int;
  mutable t_count : int;
  mutable t_events : event list;
}

let trace_log limit = { t_limit = max 0 limit; t_count = 0; t_events = [] }

let trace_record t ~round ~src ~dst ~bytes ~fate ~label =
  if t.t_count < t.t_limit then begin
    t.t_events <-
      {
        event_round = round;
        event_src = src;
        event_dst = dst;
        event_bytes = bytes;
        event_fate = fate;
        event_label = label;
      }
      :: t.t_events;
    t.t_count <- t.t_count + 1
  end

(* --- Fiber machinery ------------------------------------------------- *)

type _ Effect.t +=
  | Send : Party_id.t * payload -> unit Effect.t
  | Send_w : 'a Wire.t * Party_id.t * 'a -> unit Effect.t
  | Send_slice : Party_id.t * Wire.Slice.t -> unit Effect.t
  | Send_multi_w : 'a Wire.t * Party_id.t list * 'a -> unit Effect.t
  | Next_round : envelope list Effect.t
  | Get_round : int Effect.t
  | Output : payload -> unit Effect.t
  | Log_line : string -> unit Effect.t
  | Register_state : state_cell -> unit Effect.t

type fiber_state =
  | Waiting of (envelope list, unit) Effect.Deep.continuation
  | Finished
  | Failed of string

type cell = {
  id : Party_id.t;
  outbox : Round.outbox;
  mutable state : fiber_state;
  mutable out : payload option;
  mutable scells : state_cell list; (* reverse registration order *)
  mutable finished : int option; (* round the fiber returned in *)
}

let run cfg ~programs =
  let k = cfg.k in
  let tlog = trace_log cfg.trace_limit in
  let plane =
    Round.create
      ?trace:(if cfg.trace_limit > 0 then Some (trace_record tlog) else None)
      ~k ~link:cfg.link ~faults:cfg.faults ()
  in
  let cells =
    Array.of_list
      (List.map
         (fun id ->
           {
             id;
             outbox = Round.outbox ();
             state = Finished;
             out = None;
             scells = [];
             finished = None;
           })
         (Party_id.all ~k))
  in
  let iter_cells f = Array.iter f cells in
  let round = ref 0 in

  (* Runs [f ()] as [cell]'s fiber until it blocks on [Next_round],
     returns, or raises. *)
  let drive cell f =
    let open Effect.Deep in
    match_with f ()
      {
        retc =
          (fun () ->
            cell.state <- Finished;
            cell.finished <- Some !round);
        exnc =
          (fun exn ->
            Log.debug (fun m ->
                m "%a crashed: %s" Party_id.pp cell.id (Printexc.to_string exn));
            cell.state <- Failed (Printexc.to_string exn));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Send (dst, data) ->
              Some
                (fun (cont : (a, _) continuation) ->
                  Round.send cell.outbox dst data;
                  continue cont ())
            | Send_w (c, dst, v) ->
              Some
                (fun (cont : (a, _) continuation) ->
                  match Round.send_w cell.outbox c dst v with
                  | () -> continue cont ()
                  | exception exn -> discontinue cont exn)
            | Send_multi_w (c, dsts, v) ->
              Some
                (fun (cont : (a, _) continuation) ->
                  match Round.send_multi_w cell.outbox c dsts v with
                  | () -> continue cont ()
                  | exception exn -> discontinue cont exn)
            | Send_slice (dst, s) ->
              Some
                (fun (cont : (a, _) continuation) ->
                  Round.send_slice cell.outbox dst s;
                  continue cont ())
            | Next_round ->
              Some
                (fun (cont : (a, _) continuation) ->
                  cell.state <- Waiting cont)
            | Get_round -> Some (fun cont -> continue cont !round)
            | Output p ->
              Some
                (fun (cont : (a, _) continuation) ->
                  cell.out <- Some p;
                  continue cont ())
            | Log_line s ->
              Some
                (fun (cont : (a, _) continuation) ->
                  Log.debug (fun m -> m "r%d %a: %s" !round Party_id.pp cell.id s);
                  continue cont ())
            | Register_state sc ->
              Some
                (fun (cont : (a, _) continuation) ->
                  cell.scells <- sc :: cell.scells;
                  continue cont ())
            | _ -> None);
      }
  in

  let env_of id =
    {
      self = id;
      k;
      round = (fun () -> Effect.perform Get_round);
      send = (fun dst data -> Effect.perform (Send (dst, data)));
      send_w = (fun c dst v -> Effect.perform (Send_w (c, dst, v)));
      send_slice = (fun dst s -> Effect.perform (Send_slice (dst, s)));
      send_multi_w = (fun c dsts v -> Effect.perform (Send_multi_w (c, dsts, v)));
      next_round = (fun () -> Effect.perform Next_round);
      output = (fun p -> Effect.perform (Output p));
      log = (fun s -> Effect.perform (Log_line s));
      register_state = (fun c r -> Effect.perform (Register_state (state_cell c r)));
      register_cell = (fun sc -> Effect.perform (Register_state sc));
    }
  in

  (* Round 0: start every fiber. *)
  iter_cells (fun cell ->
      let program = programs cell.id in
      drive cell (fun () -> program (env_of cell.id)));

  (* Deliver this round's traffic: every sender's outbox through the
     shared router, senders in roster order. *)
  let deliver () =
    iter_cells (fun cell -> Round.route plane ~round:!round ~src:cell.id cell.outbox)
  in

  let some_waiting () =
    Array.exists
      (fun c ->
        match c.state with
        | Waiting _ -> true
        | Finished | Failed _ -> false)
      cells
  in

  while some_waiting () && !round < cfg.max_rounds do
    deliver ();
    incr round;
    (* State scrambling runs between rounds — after the previous round's
       delivery sweep, before any fiber resumes — against parties still
       in the protocol, so a corrupted cell is exactly "the value the
       party wakes up with". *)
    iter_cells (fun cell ->
        match cell.state with
        | Waiting _ -> Round.scramble plane ~round:!round ~party:cell.id cell.scells
        | Finished | Failed _ -> ());
    Array.iteri
      (fun d cell ->
        match cell.state with
        | Waiting cont ->
          let inbox = Round.collect plane d in
          (* Resuming re-enters the deep handler installed by [drive], which
             updates [cell.state] on park / return / raise; pre-set Finished
             for the plain-return path before any effect fires. *)
          cell.state <- Finished;
          Effect.Deep.continue cont inbox
        | Finished | Failed _ -> ())
      cells
  done;
  (* Flush messages sent in the final round so accounting covers them even
     though no fiber is left to read them. [round] was last incremented
     before those fibers ran, so the flushed events carry the round their
     messages were sent in — the same convention as in-loop deliveries,
     keeping trace rounds monotone up to [rounds_used]. *)
  deliver ();
  assert (
    let rec monotone bound = function
      | [] -> true
      | e :: older -> e.event_round <= bound && monotone e.event_round older
    in
    monotone !round tlog.t_events);

  let party_result cell =
    let status =
      match cell.state with
      | Finished -> Terminated
      | Waiting _ -> Out_of_rounds
      | Failed msg -> Crashed msg
    in
    { id = cell.id; status; out = cell.out; finished_round = cell.finished }
  in
  {
    parties = List.map party_result (Array.to_list cells);
    trace = List.rev tlog.t_events;
    metrics = Round.metrics ~rounds_used:!round [ plane ];
  }

let find_result_opt res p =
  List.find_opt (fun (r : party_result) -> Party_id.equal r.id p) res.parties

let find_result res p =
  match find_result_opt res p with
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf "Engine.find_result: party %s not in roster of %d parties"
         (Party_id.to_string p)
         (List.length res.parties))
