(* End-to-end zoo serving benchmark.

   Serves a seeded request stream of zoo models through the public facade
   (Zoo -> Pipeline.compile -> Engine.create/submit/await), checks every
   distinct input against the Reference interpreter, and prints the
   end-to-end metrics.  With [--trace 1] it then replays the same stream
   on a fresh set-up and times each layer's public entry point from the
   outside for the per-layer breakdown.  See README.md in this directory. *)

module RT = Sod2_runtime
module W = Workloads

let now = Unix.gettimeofday
let profile = Profile.sd888_cpu

(* ------------------------------------------------------------------ *)
(* Host record                                                          *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

let field prefix path =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        match String.index_opt line ':' with
        | Some i -> Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> None
      else None)
    (read_lines path)

(* (steal, total) CPU jiffies since boot, from /proc/stat's "cpu" line:
   time the hypervisor gave to other guests shows up as steal. *)
let cpu_jiffies () =
  match List.filter (( <> ) "") (String.split_on_char ' ' (List.hd (read_lines "/proc/stat"))) with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    List.nth v 7, List.fold_left ( + ) 0 v
  | _ | (exception _) -> 0, 0

let peak_rss_mb () =
  match field "VmHWM" "/proc/self/status" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> 0.0)
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

type inputs = (Graph.tensor_id * Tensor.t) list

type served = {
  graph : Graph.t;
  compiled : Sod2.Pipeline.compiled;
  engine : RT.Engine.t;
  envs : Env.t array;  (** per binding *)
}

type phases = { build_s : float; compile_s : float; create_s : float; warm_s : float }

let setup_s p = p.build_s +. p.compile_s +. p.create_s +. p.warm_s

let spec_of name =
  match Zoo.by_name name with Some s -> s | None -> invalid_arg ("unknown model " ^ name)

(* Zoo build + compile + engine start + warm-up, each phase timed. *)
let setup (w : W.t) cfg pool =
  let build = ref 0.0 and compile = ref 0.0 and create = ref 0.0 in
  let timed acc f =
    let t0 = now () in
    let r = f () in
    acc := !acc +. (now () -. t0);
    r
  in
  let served =
    Array.of_list
      (List.map
         (fun (md : W.model) ->
           let spec = spec_of md.W.model in
           let graph = timed build spec.Zoo.build in
           let compiled =
             timed compile (fun () ->
                 Sod2.Pipeline.compile ~opts:cfg.RT.Executor.compile profile graph)
           in
           let engine =
             timed create (fun () -> RT.Engine.create ~workers:w.W.workers ~config:cfg compiled)
           in
           { graph; compiled; engine; envs = Array.of_list (List.map Env.of_list md.W.bindings) })
         w.W.models)
  in
  let t0 = now () in
  (match w.W.warmup with
   | W.No_warmup -> ()
   | W.Warm_bindings ->
     Array.iteri
       (fun m s ->
         Array.iteri
           (fun b env -> ignore (RT.Engine.infer s.engine ~env ~inputs:pool.(m).(b).(0)))
           s.envs)
       served);
  ( served,
    { build_s = !build; compile_s = !compile; create_s = !create; warm_s = now () -. t0 } )

let shutdown served =
  Array.iter (fun s -> RT.Engine.shutdown s.engine) served;
  Gc.full_major ()

(* The gate path [inputs] take through model [m]: the branch chosen at
   each Switch, in order ("" for an ungated graph).  Returns the function
   and a clean-up that stops the backends it started. *)
let gate_path cfg =
  let runners = Hashtbl.create 2 in
  let path m g _env inputs =
    if Zoo.gate_count g = 0 then ""
    else begin
      let c, backend =
        match Hashtbl.find_opt runners m with
        | Some r -> r
        | None ->
          let c = Sod2.Pipeline.compile ~opts:cfg.RT.Executor.compile profile g in
          let r = c, RT.Backend.for_compiled cfg.RT.Executor.backend c in
          Hashtbl.replace runners m r;
          r
      in
      let tr, _ = RT.Executor.run_real ~backend c ~inputs in
      String.concat "," (List.map (fun (_, b) -> string_of_int b) tr.RT.Executor.gate_outcomes)
    end
  in
  path, fun () -> Hashtbl.iter (fun _ (_, b) -> RT.Backend.shutdown b) runners

(* [f ()] computed in a child process and passed back marshalled, so the
   memory of the pool's trial runs never counts toward this process's
   peak RSS.  Called before any domain is spawned, as fork requires. *)
let in_child f =
  flush stdout;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 -> (
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    match f () with
    | v ->
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
    | exception e ->
      prerr_endline ("input pool: " ^ Printexc.to_string e);
      Unix._exit 1)
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v = match Marshal.from_channel ic with v -> Some v | exception End_of_file -> None in
    close_in ic;
    match Unix.waitpid [] pid, v with
    | (_, Unix.WEXITED 0), Some v -> v
    | _ -> failwith "input pool: child process failed")

(* ------------------------------------------------------------------ *)
(* Serving                                                              *)
(* ------------------------------------------------------------------ *)

type response = {
  req : W.request;
  first_seen : bool;  (** first request of its binding in this engine *)
  latency_ms : float;  (** submit to completion, queue wait included *)
  outputs : inputs;
}

type pass = {
  issued : W.request array;  (** in submit order *)
  responses : response list;
  failed : int;  (** settled with an error: failed, shed or expired *)
  rejected : int;  (** refused at submit *)
  wall_s : float;
}

(* Closed loop from one client thread: keep [in_flight] requests
   outstanding, await the oldest, submit the next, until [stop] says so;
   then drain. *)
let serve (w : W.t) served pool ~next ~stop =
  let pending = Queue.create () in
  let seen = Hashtbl.create 64 in
  if w.W.warmup = W.Warm_bindings then
    Array.iteri (fun m s -> Array.iteri (fun b _ -> Hashtbl.replace seen (m, b) ()) s.envs) served;
  let issued = ref [] and nissued = ref 0 and responses = ref [] in
  let failed = ref 0 and rejected = ref 0 and stopped = ref false in
  let t0 = now () in
  while (not !stopped) || not (Queue.is_empty pending) do
    if (not !stopped) && stop ~issued:!nissued ~elapsed:(now () -. t0) then stopped := true;
    if (not !stopped) && Queue.length pending < w.W.in_flight then begin
      let r : W.request = next () in
      issued := r :: !issued;
      incr nissued;
      let first_seen = not (Hashtbl.mem seen (r.m, r.binding)) in
      Hashtbl.replace seen (r.m, r.binding) ();
      let s = served.(r.m) in
      match
        RT.Engine.submit s.engine ~env:s.envs.(r.binding) ~inputs:pool.(r.m).(r.binding).(r.input)
      with
      | t -> Queue.push (r, first_seen, t) pending
      | exception Sod2_error.Error _ -> incr rejected
    end
    else if not (Queue.is_empty pending) then begin
      let r, first_seen, t = Queue.pop pending in
      match RT.Engine.await served.(r.m).engine t with
      | res ->
        responses :=
          { req = r; first_seen; latency_ms = res.RT.Engine.latency_us /. 1e3;
            outputs = res.RT.Engine.outputs }
          :: !responses
      | exception Sod2_error.Error _ -> incr failed
    end
  done;
  {
    issued = Array.of_list (List.rev !issued);
    responses = List.rev !responses;
    failed = !failed;
    rejected = !rejected;
    wall_s = now () -. t0;
  }

(* Timed region: at least [seconds], ending on a whole round so every seed
   measures the same mix; a hard cap keeps a slow host within limits. *)
let timed_stop (w : W.t) ~seconds ~issued ~elapsed =
  (elapsed >= seconds && issued mod W.round_length w = 0) || elapsed >= 4.0 *. seconds

let replay_stop n ~issued ~elapsed:_ = issued >= n

let replay_next (reqs : W.request array) =
  let i = ref 0 in
  fun () ->
    let r = reqs.(!i) in
    incr i;
    r

(* ------------------------------------------------------------------ *)
(* Oracle                                                               *)
(* ------------------------------------------------------------------ *)

(* Reference.run once per distinct input sent, on two domains; returns the
   number of responses that disagree with it. *)
let oracle served pool responses =
  let by_entry = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = r.req.W.m, r.req.W.binding, r.req.W.input in
      Hashtbl.replace by_entry k (r :: Option.value ~default:[] (Hashtbl.find_opt by_entry k)))
    responses;
  let entries = Array.of_seq (Hashtbl.to_seq by_entry) in
  let check i =
    let (m, b, input), rs = entries.(i) in
    Oracle.mismatches (RT.Reference.run served.(m).graph ~inputs:pool.(m).(b).(input))
      (List.map (fun r -> r.outputs) rs)
  in
  let n = Array.length entries in
  let half = n / 2 in
  let other = Domain.spawn (fun () -> List.init (n - half) (fun i -> check (half + i))) in
  let mine = List.init half check in
  let theirs = Domain.join other in
  List.fold_left ( + ) 0 (mine @ theirs), n

(* ------------------------------------------------------------------ *)
(* Traced replay: per-layer numbers from outside the program            *)
(* ------------------------------------------------------------------ *)

let counters () = Profile.Counters.by_kind ()

let delta before after kind =
  let get l = Option.value ~default:0 (List.assoc_opt kind l) in
  get after - get before

type engine_totals = { busy_us : float; latency_us : float; completed : int; batched : int }

let engine_totals served =
  Array.fold_left
    (fun acc s ->
      let st = RT.Engine.stats s.engine in
      {
        busy_us = acc.busy_us +. Array.fold_left ( +. ) 0.0 st.RT.Engine.busy_us;
        latency_us = acc.latency_us +. st.RT.Engine.total_latency_us;
        completed = acc.completed + st.RT.Engine.completed;
        batched = acc.batched + st.RT.Engine.batched;
      })
    { busy_us = 0.0; latency_us = 0.0; completed = 0; batched = 0 }
    served

let kernel_classes =
  [ "matmul"; "conv"; "softmax"; "layernorm"; "batchnorm"; "pool"; "elementwise"; "transpose" ]

let kernel_class = function
  | Op.MatMul | Op.Gemm _ -> Some "matmul"
  | Op.Conv _ | Op.Conv1d _ -> Some "conv"
  | Op.Softmax _ | Op.LogSoftmax _ -> Some "softmax"
  | Op.LayerNorm _ -> Some "layernorm"
  | Op.BatchNorm _ -> Some "batchnorm"
  | Op.MaxPool _ | Op.AveragePool _ | Op.GlobalAveragePool -> Some "pool"
  | Op.Unary _ | Op.Binary _ | Op.Clip _ -> Some "elementwise"
  | Op.Transpose _ -> Some "transpose"
  | _ -> None

(* One op through Kernels.run on synthetic [0, 1) tensors at the traced
   extents: one untimed call, then the median of three.  [None] when the
   kernel rejects synthetic float operands (e.g. an op on integer shape
   values); such ops are left out and lower [kernels.replay_coverage]. *)
let time_op backend op in_dims =
  let rng = Rng.create 1 in
  let inputs =
    List.map (fun d -> Tensor.map_f (fun v -> 0.5 +. (0.5 *. v)) (Tensor.rand_uniform rng d)) in_dims
  in
  match RT.Kernels.run ~backend op inputs with
  | exception _ -> None
  | _ ->
    let once () =
      let t0 = now () in
      ignore (RT.Kernels.run ~backend op inputs);
      (now () -. t0) *. 1e3
    in
    Some (Stats.median (Array.init 3 (fun _ -> once ())))

type kstat = { mutable ms : float; mutable flops : float; mutable bytes : float }

(* Per-class self time of one request's traced member ops, plus the
   cost-model prediction for the same replayed ops. *)
let replay_kernels backend (tr : RT.Executor.trace) =
  let memo = Hashtbl.create 64 in
  let acc = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace acc k { ms = 0.0; flops = 0.0; bytes = 0.0 }) kernel_classes;
  let predicted_us = ref 0.0 in
  List.iter
    (fun (st : RT.Executor.group_exec) ->
      List.iter
        (fun (op, in_dims, out_dims) ->
          match kernel_class op with
          | None -> ()
          | Some k -> (
            let t =
              match Hashtbl.find_opt memo (op, in_dims) with
              | Some t -> t
              | None ->
                let t = time_op backend op in_dims in
                Hashtbl.replace memo (op, in_dims) t;
                t
            in
            match t with
            | None -> ()
            | Some ms ->
              let s = Hashtbl.find acc k in
              s.ms <- s.ms +. ms;
              s.flops <- s.flops +. Cost_model.flops op ~in_dims ~out_dims;
              s.bytes <-
                s.bytes
                +. float_of_int
                     (List.fold_left (fun a d -> a + Cost_model.tensor_bytes d) 0 (in_dims @ out_dims));
              predicted_us := !predicted_us +. Cost_model.op_time_us profile op ~in_dims ~out_dims))
        st.RT.Executor.ops)
    tr.RT.Executor.steps;
  acc, !predicted_us

(* The distinct (model, binding) pairs of the stream, most frequent first,
   at most eight (the direct runs and the replay cost a request's time or
   more per binding); each with its request count and one input it sent. *)
let binding_sample (issued : W.request array) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (r : W.request) ->
      let k = r.m, r.binding in
      let n, input = Option.value ~default:(0, r.input) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (n + 1, input))
    issued;
  let l = List.of_seq (Hashtbl.to_seq tbl) in
  let l = List.sort (fun (ka, (na, _)) (kb, (nb, _)) -> compare (nb, ka) (na, kb)) l in
  List.filteri (fun i _ -> i < 8) l

type layer = (string * float) list

(* One sampled binding's direct executor runs and kernel replay. *)
type binding_run = {
  weight : float;  (** requests the stream sent with this binding *)
  run_ms : float;  (** median Executor.run_real time *)
  trace : RT.Executor.trace;
  per_run : string -> float;  (** counter delta per timed run *)
  kernels : (string, kstat) Hashtbl.t;
  predicted_us : float;
}

(* Direct Executor.run_real over a persistent backend + arena per model,
   in the serving config, on the sampled bindings; then the kernel replay
   of each binding's trace. *)
let executor_layers cfg served pool sample : layer =
  let backends =
    Array.map (fun s -> RT.Backend.for_compiled cfg.RT.Executor.backend s.compiled) served
  in
  let arenas = Array.map (fun _ -> RT.Arena.create ()) served in
  Fun.protect ~finally:(fun () -> Array.iter RT.Backend.shutdown backends) @@ fun () ->
  let reps = 2 in
  let runs =
    List.map
      (fun ((m, b), (weight, input)) ->
        let s = served.(m) in
        let env = s.envs.(b) and inputs = pool.(m).(b).(input) in
        let memory = RT.Executor.Arena { arena = arenas.(m); env } in
        let run ?outcomes () =
          RT.Executor.run_real ~config:cfg ~env ~backend:backends.(m) ~memory ?outcomes s.compiled
            ~inputs
        in
        (* Untimed first run; like the engine, predict the outcome vector
           from it. *)
        let tr0, _ = run () in
        let gates = s.compiled.Sod2.Pipeline.control.Control_region.gates in
        let outcomes =
          if Array.length gates = 0 then None
          else
            Some
              (Array.map
                 (fun gt ->
                   Option.value ~default:(-1)
                     (List.assoc_opt gt.Control_region.g_pred tr0.RT.Executor.gate_outcomes))
                 gates)
        in
        let c0 = counters () in
        let timed =
          Array.init reps (fun _ ->
              let t0 = now () in
              let tr, _ = run ?outcomes () in
              (now () -. t0) *. 1e3, tr)
        in
        let c1 = counters () in
        let trace = snd timed.(reps - 1) in
        let kernels, predicted_us = replay_kernels backends.(m) trace in
        {
          weight = float_of_int weight;
          run_ms = Stats.median (Array.map fst timed);
          trace;
          per_run = (fun kind -> float_of_int (delta c0 c1 kind) /. float_of_int reps);
          kernels;
          predicted_us;
        })
      sample
  in
  let wmean f =
    List.fold_left (fun a r -> a +. (r.weight *. f r)) 0.0 runs
    /. List.fold_left (fun a r -> a +. r.weight) 0.0 runs
  in
  let run_ms = wmean (fun r -> r.run_ms) in
  let kstat k field = wmean (fun r -> field (Hashtbl.find r.kernels k)) in
  let kms k = kstat k (fun s -> s.ms) in
  let replayed_ms = List.fold_left (fun a k -> a +. kms k) 0.0 kernel_classes in
  let gflops k = Stats.ratio (kstat k (fun s -> s.flops)) (kms k *. 1e6) in
  let gbs k = Stats.ratio (kstat k (fun s -> s.bytes)) (kms k *. 1e6) in
  let step_bytes f r =
    List.fold_left (fun a st -> a +. float_of_int (f st)) 0.0 r.trace.RT.Executor.steps
  in
  let internal = wmean (step_bytes (fun st -> st.RT.Executor.internal_bytes)) in
  let external_ = wmean (step_bytes (fun st -> st.RT.Executor.external_bytes)) in
  let widest =
    List.fold_left
      (fun (best : RT.Executor.trace) r ->
        if r.trace.RT.Executor.arena_bytes > best.RT.Executor.arena_bytes then r.trace else best)
      (List.hd runs).trace runs
  in
  [
    "mem_plan.arena_mb", float_of_int widest.RT.Executor.arena_bytes /. 1048576.0;
    ( "mem_plan.arena_over_live",
      Stats.ratio (float_of_int widest.RT.Executor.arena_bytes)
        (float_of_int (RT.Executor.peak_live_bytes widest)) );
    "executor.run_ms", run_ms;
    "executor.nodes_per_req", wmean (fun r -> float_of_int r.trace.RT.Executor.nodes_executed);
    "executor.ready_scans_per_req", wmean (fun r -> r.per_run "exec-ready-scan");
    "executor.copy_outs_per_req", wmean (fun r -> r.per_run "arena-copy-out");
    "executor.dest_stores_per_req", wmean (fun r -> r.per_run "arena-dest-store");
    "executor.fusion_saved_ratio", Stats.ratio internal (internal +. external_);
  ]
  @ List.map (fun k -> "kernels." ^ k ^ "_ms", kms k) kernel_classes
  @ [
      "kernels.matmul_gflops", gflops "matmul";
      "kernels.conv_gflops", gflops "conv";
      "kernels.softmax_gbs", gbs "softmax";
      "kernels.layernorm_gbs", gbs "layernorm";
      "kernels.replay_coverage", Stats.ratio replayed_ms run_ms;
      ( "cost_model.measured_over_predicted",
        Stats.ratio replayed_ms (wmean (fun r -> r.predicted_us /. 1e3)) );
    ]

(* Plan-cache miss and hit cost through Pipeline.instantiated_plan, on a
   fresh compile so the served artifacts' caches stay as the stream left
   them. *)
let plan_layers cfg served sample : layer =
  let fresh = Array.map (fun s -> lazy (Sod2.Pipeline.compile ~opts:cfg.RT.Executor.compile profile s.graph)) served in
  let probes =
    List.map
      (fun ((m, b), _) ->
        let c = Lazy.force fresh.(m) and env = served.(m).envs.(b) in
        let t0 = now () in
        ignore (Sod2.Pipeline.instantiated_plan c env);
        let miss_us = (now () -. t0) *. 1e6 in
        let hits = 1000 in
        let t1 = now () in
        for _ = 1 to hits do
          ignore (Sod2.Pipeline.instantiated_plan c env)
        done;
        miss_us, (now () -. t1) *. 1e6 /. float_of_int hits)
      sample
  in
  [
    "pipeline.plan_instantiate_us", Stats.median (Array.of_list (List.map fst probes));
    "pipeline.plan_lookup_us", Stats.median (Array.of_list (List.map snd probes));
  ]

let serving_layers (w : W.t) served (p : pass) c0 c1 e0 e1 : layer =
  let d = delta c0 c1 in
  let completed = e1.completed - e0.completed in
  let workers = float_of_int (w.W.workers * Array.length served) in
  let lat f = Array.of_list (List.filter_map (fun r -> if f r then Some r.latency_ms else None) p.responses) in
  let cold = lat (fun r -> r.first_seen) and warm = lat (fun r -> not r.first_seen) in
  let hits = d "fused-cache-hit" and misses = d "fused-cache-miss" and rejects = d "fused-reject" in
  let gated =
    List.length
      (List.filter
         (fun r -> Array.length served.(r.req.W.m).compiled.Sod2.Pipeline.control.Control_region.gates > 0)
         p.responses)
  in
  [
    "pipeline.plan_cache_misses", float_of_int (d "plan-cache-miss");
    "backend.fused_hit_ratio", Stats.ratio (float_of_int hits) (float_of_int (hits + misses + rejects));
    "backend.fused_misses", float_of_int misses;
    "backend.fused_rejects", float_of_int rejects;
    ( "engine.wait_ms_mean",
      Stats.ratio ((e1.latency_us -. e0.latency_us) -. (e1.busy_us -. e0.busy_us)) (float_of_int completed) /. 1e3 );
    "engine.busy_share", Stats.ratio ((e1.busy_us -. e0.busy_us) /. 1e6) (workers *. p.wall_s);
    "engine.batched", float_of_int (e1.batched - e0.batched);
    ( "engine.cold_extra_ms",
      if Array.length cold = 0 || Array.length warm = 0 then 0.0
      else Stats.median cold -. Stats.median warm );
    "engine.variant_hit_ratio", Stats.ratio (float_of_int (d "variant-run")) (float_of_int gated);
    "engine.variant_mispredicts", float_of_int (d "variant-mispredict");
    "engine.variant_direct", float_of_int (d "engine-variant-direct");
    "guarded.vets", float_of_int (d "variant-vet");
  ]

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-test";
  exit 2

let parse_args argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | [] -> a
    | _ -> usage ()
  in
  match go { workload = ""; seed = 0; seconds = 10.0; trace = false } argv with
  | a -> a
  | exception Failure _ -> usage ()

let emit_metrics names values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some value -> { Stats.name; unit_; value }
      | None -> failwith ("metric not measured: " ^ name))
    names

let run a =
  let w = match W.by_name a.workload with Some w -> w | None -> usage () in
  let cfg =
    match RT.Executor.config_of_string w.W.exec with
    | Ok c -> c
    | Error e -> failwith ("bad exec spec: " ^ e)
  in
  Printf.printf "# host: nproc=%d cpu=%S ocaml=%s\n" (Domain.recommended_domain_count ())
    (Option.value ~default:"unknown" (field "model name" "/proc/cpuinfo"))
    Sys.ocaml_version;
  let pool : inputs array array array =
    in_child (fun () ->
        let path, stop = gate_path cfg in
        Fun.protect ~finally:stop (fun () -> W.make_pool w ~seed:a.seed ~path))
  in
  let served, ph = setup w cfg pool in
  let steal0, total0 = cpu_jiffies () in
  let p =
    serve w served pool ~next:(W.stream w ~seed:a.seed)
      ~stop:(timed_stop w ~seconds:a.seconds)
  in
  let rss = peak_rss_mb () in
  let steal1, total1 = cpu_jiffies () in
  shutdown served;
  (* Two more set-ups for the setup_s median, after the timed region so
     their leftovers do not weigh on its memory. *)
  let setups =
    Array.of_list
      (setup_s ph
      :: (if a.trace then []
          else
            List.init 2 (fun _ ->
                let s, ph = setup w cfg pool in
                shutdown s;
                setup_s ph)))
  in
  let submitted = Array.length p.issued in
  let completed = List.length p.responses in
  let rps = float_of_int completed /. p.wall_s in
  (* Per-model latency samples.  With several models the pooled
     distribution is multimodal and its median sits on the edge between
     two models, so the reported percentile is the mean over models of each
     model's own percentile. *)
  let per_model =
    List.mapi
      (fun m (md : W.model) ->
        ( md.W.model,
          Array.of_list
            (List.filter_map (fun r -> if r.req.W.m = m then Some r.latency_ms else None) p.responses) ))
      w.W.models
  in
  let pct q = Stats.mean (Array.of_list (List.map (fun (_, l) -> Stats.percentile q l) per_model)) in
  let lats = Array.of_list (List.map (fun r -> r.latency_ms) p.responses) in
  let p50 = pct 50.0 and p90 = pct 90.0 in
  let beyond =
    List.fold_left
      (fun n (_, l) ->
        let q = Stats.percentile 90.0 l in
        Array.fold_left (fun n x -> if x > q then n + 1 else n) n l)
      0 per_model
  in
  (* Traced replay of the same stream on a fresh set-up. *)
  let traced =
    if not a.trace then None
    else begin
      let served, tph = setup w cfg pool in
      let c0 = counters () and e0 = engine_totals served in
      let tp =
        serve w served pool ~next:(replay_next p.issued) ~stop:(replay_stop submitted)
      in
      let c1 = counters () and e1 = engine_totals served in
      let serving = serving_layers w served tp c0 c1 e0 e1 in
      shutdown served;
      let sample = binding_sample p.issued in
      let traced_rps = float_of_int (List.length tp.responses) /. tp.wall_s in
      let layers =
        [
          "zoo.build_ms", tph.build_s *. 1e3;
          "pipeline.compile_ms", tph.compile_s *. 1e3;
          "engine.create_ms", tph.create_s *. 1e3;
        ]
        @ serving @ executor_layers cfg served pool sample @ plan_layers cfg served sample
        @ [
            "trace.untraced_rps", rps;
            "trace.traced_rps", traced_rps;
            "trace.overhead_ratio", Stats.ratio rps traced_rps -. 1.0;
          ]
      in
      Some (tp, layers)
    end
  in
  let passes = p :: (match traced with Some (tp, _) -> [ tp ] | None -> []) in
  let sum f = List.fold_left (fun n q -> n + f q) 0 passes in
  let attempted = sum (fun q -> Array.length q.issued) in
  let failed = sum (fun q -> q.failed) and rejected = sum (fun q -> q.rejected) in
  let bad, distinct = oracle served pool (List.concat_map (fun q -> q.responses) passes) in
  Printf.printf
    "# run: workload=%s seed=%d exec=%s seconds=%g trace=%d requests=%d cpu_steal=%.1f%%\n"
    w.W.name a.seed w.W.exec a.seconds (if a.trace then 1 else 0) submitted
    (100.0 *. Stats.ratio (float_of_int (steal1 - steal0)) (float_of_int (total1 - total0)));
  Printf.printf "throughput_rps  %10.4f 1/s  (%d completed in %.3f s)\n" rps completed p.wall_s;
  Printf.printf "latency_p50_ms  %10.3f ms   (n=%d)\n" p50 (Array.length lats);
  Printf.printf "latency_p90_ms  %10.3f ms   (n=%d, %d beyond p90)\n" p90 (Array.length lats) beyond;
  if List.length per_model > 1 then
    List.iter
      (fun (name, l) ->
        Printf.printf "  %-18s p50 %10.3f ms   p90 %10.3f ms   (n=%d)\n" name
          (Stats.percentile 50.0 l) (Stats.percentile 90.0 l) (Array.length l))
      per_model;
  Printf.printf
    "error_ratio     %10.4f      (%d failed, %d rejected, %d oracle mismatches of %d requests; %d distinct inputs checked)\n"
    (Oracle.error_ratio ~submitted:attempted ~failed ~rejected ~mismatches:bad)
    failed rejected bad attempted distinct;
  Printf.printf "peak_rss_mb     %10.2f MB\n" rss;
  Printf.printf
    "setup_s         %10.4f s    (median of %d; first: build %.3f, compile %.3f, create %.3f, warm-up %.3f s)\n"
    (Stats.median setups) (Array.length setups) ph.build_s ph.compile_s ph.create_s ph.warm_s;
  let metrics =
    match traced with
    | None ->
      emit_metrics Metric_names.end_to_end
        [
          "throughput_rps", rps;
          "latency_p50_ms", p50;
          "latency_p90_ms", p90;
          "peak_rss_mb", rss;
          "setup_s", Stats.median setups;
        ]
    | Some (_, layers) ->
      List.iter (fun (n, v) -> Printf.printf "  %-36s %14.4f\n" n v) layers;
      emit_metrics Metric_names.per_layer layers
  in
  let errors = failed + rejected + bad in
  print_endline (Stats.result_json ~correct:(errors = 0) ~attempted ~failed:errors metrics);
  if errors > 0 then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--self-test" ] -> exit (if Selftest.run () then 0 else 1)
  | argv -> run (parse_args argv)
