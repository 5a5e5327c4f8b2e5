type board = {
  publish : round:int -> payload:string -> unit;
  read : int -> (int * int * string) list;
  targets : int;
  watch : (unit -> unit) -> unit;
}

let read_tag = 0

let wake_tag = 1

type state = {
  board : board;
  scan_delay : Thc_sim.Delay.t;
  app : Round_app.app;
  mutable round : int;
  mutable scan_queue : int list;
  delivered : (int * int * string, unit) Hashtbl.t;
  received_in : (int * int, unit) Hashtbl.t;
  mutable stopped : bool;
  mutable changed : bool;  (* a board object changed since this sweep began *)
  mutable parked : bool;  (* holding with no timer armed *)
}

let handle_of st (ctx : 'm Thc_sim.Engine.ctx) : Round_app.handle =
  {
    self = ctx.self;
    n = ctx.n;
    round = (fun () -> st.round);
    output = ctx.output;
    now = ctx.now;
    rng = ctx.rng;
  }

let note_reception st (ctx : 'm Thc_sim.Engine.ctx) ~round ~from ~payload =
  if round = st.round && not (Hashtbl.mem st.received_in (round, from)) then begin
    Hashtbl.replace st.received_in (round, from) ();
    ctx.output (Thc_sim.Obs.Round_received { round; from; payload })
  end

let flush_early st ctx =
  Hashtbl.iter
    (fun (owner, round, payload) () ->
      if round = st.round then note_reception st ctx ~round ~from:owner ~payload)
    st.delivered

let start_sweep st (ctx : 'm Thc_sim.Engine.ctx) =
  st.changed <- false;
  let order = Array.init st.board.targets (fun i -> i) in
  Thc_util.Rng.shuffle ctx.rng order;
  st.scan_queue <- Array.to_list order;
  ctx.set_timer ~delay:(Thc_sim.Delay.sample ctx.rng st.scan_delay) ~tag:read_tag

let start_round st (ctx : 'm Thc_sim.Engine.ctx) payload =
  (match payload with
  | Some m ->
    st.board.publish ~round:st.round ~payload:m;
    ctx.output (Thc_sim.Obs.Round_sent { round = st.round; payload = m })
  | None -> ());
  flush_early st ctx;
  start_sweep st ctx

(* A sweep with no write since the previous one would read exactly what
   that one read, so a holding process re-sweeps only if something changed
   meanwhile, and otherwise parks until the board's next change. *)
let rec check st (ctx : 'm Thc_sim.Engine.ctx) =
  match st.app.Round_app.on_round_check (handle_of st ctx) ~round:st.round with
  | Round_app.Advance payload ->
    ctx.output (Thc_sim.Obs.Round_ended { round = st.round });
    st.round <- st.round + 1;
    start_round st ctx payload
  | Round_app.Hold -> if st.changed then start_sweep st ctx else st.parked <- true
  | Round_app.Stop ->
    ctx.output (Thc_sim.Obs.Round_ended { round = st.round });
    st.stopped <- true

and read_next st (ctx : 'm Thc_sim.Engine.ctx) =
  match st.scan_queue with
  | [] -> check st ctx
  | j :: rest ->
    st.scan_queue <- rest;
    List.iter
      (fun (owner, round, payload) ->
        if not (Hashtbl.mem st.delivered (owner, round, payload)) then begin
          Hashtbl.replace st.delivered (owner, round, payload) ();
          note_reception st ctx ~round ~from:owner ~payload;
          st.app.Round_app.on_receive (handle_of st ctx) ~round ~from:owner
            payload
        end)
      (st.board.read j);
    if st.scan_queue = [] then check st ctx
    else
      ctx.set_timer
        ~delay:(Thc_sim.Delay.sample ctx.rng st.scan_delay)
        ~tag:read_tag

(* Runs inside whichever step changed the board.  The woken process sweeps
   from its own timer handler, so its RNG draws stay in its own steps. *)
let on_change st (ctx : 'm Thc_sim.Engine.ctx) =
  if st.parked then begin
    st.parked <- false;
    ctx.set_timer ~delay:0L ~tag:wake_tag
  end
  else st.changed <- true

let behavior ~board ?(scan_delay = Thc_sim.Delay.Uniform (1L, 100L)) app :
    'm Thc_sim.Engine.behavior =
  let st =
    {
      board;
      scan_delay;
      app;
      round = 1;
      scan_queue = [];
      delivered = Hashtbl.create 64;
      received_in = Hashtbl.create 64;
      stopped = false;
      changed = false;
      parked = false;
    }
  in
  {
    init =
      (fun ctx ->
        board.watch (fun () -> on_change st ctx);
        let payload = app.Round_app.first_payload (handle_of st ctx) in
        start_round st ctx payload);
    on_message = (fun _ ~src:_ _ -> ());
    on_timer =
      (fun ctx tag ->
        if not st.stopped then
          if tag = read_tag then read_next st ctx
          else if tag = wake_tag then start_sweep st ctx);
  }
