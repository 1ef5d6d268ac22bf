(* Tests for the verdict cache: canonical keying (task order and names
   must not matter, analyzer identity and area must), LRU mechanics,
   and the load-bearing property that a cached verdict is exactly the
   verdict a fresh computation would produce — including the per-task
   check indices, which the cache remaps through the sort
   permutation. *)

open Core_helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_str_list = Alcotest.(check (list string))

let verdict_str v = Wire.Json.to_string (Core.Verdict.to_json v)

let table1 =
  taskset [ ("tau1", "1.26", "7", "7", 9); ("tau2", "0.95", "5", "5", 6) ]

let table1_swapped =
  taskset [ ("b", "0.95", "5", "5", 6); ("a", "1.26", "7", "7", 9) ]

(* --- canonicalization --- *)

let canonical_order_stable () =
  (* equal-parameter tasks keep their original relative order *)
  let ts = taskset [ ("x", "1", "5", "5", 2); ("y", "1", "5", "5", 2); ("z", "1", "4", "5", 2) ] in
  Alcotest.(check (array int)) "stable ties" [| 2; 0; 1 |] (Cache.Canonical.order ts)

let canonical_apply () =
  let canon o ts = Model.Taskset.to_csv (Cache.Canonical.apply o ts) in
  check_str "permutation-invariant canonical form"
    (canon (Cache.Canonical.order table1) table1)
    (canon (Cache.Canonical.order table1_swapped) table1_swapped)

let key_ignores_order_and_names () =
  let key ts = Cache.Canonical.key ~analyzer:Core.Analyzer.gn2 ~fpga_area:10 ts in
  check_str "same key" (key table1) (key table1_swapped)

let key_separates_requests () =
  let key ?(analyzer = Core.Analyzer.gn2) ?(fpga_area = 10) ts =
    Cache.Canonical.key ~analyzer ~fpga_area ts
  in
  let distinct what a b = check_bool what false (String.equal a b) in
  distinct "area matters" (key table1) (key ~fpga_area:11 table1);
  distinct "analyzer matters" (key table1) (key ~analyzer:Core.Analyzer.dp table1);
  let bumped = { Core.Analyzer.gn2 with Core.Analyzer.version = "2" } in
  distinct "version matters" (key table1) (key ~analyzer:bumped table1);
  distinct "parameters matter" (key table1)
    (key (taskset [ ("tau1", "1.26", "7", "7", 9); ("tau2", "0.95", "5", "6", 6) ]))

(* the Printf formatting the canonical key used before the Printf-free
   writer: the key bytes must not move *)
let printf_key (a : Core.Analyzer.t) ~fpga_area ts =
  Printf.sprintf "%s\x00%s\x00%d\x00" a.Core.Analyzer.name a.Core.Analyzer.version fpga_area
  ^ String.concat ""
      (Array.to_list
         (Array.map
            (fun i ->
              let t = Model.Taskset.nth ts i and ticks = Model.Time.ticks in
              Printf.sprintf "%d,%d,%d,%d;" (ticks t.Model.Task.exec) (ticks t.Model.Task.deadline)
                (ticks t.Model.Task.period) t.Model.Task.area)
            (Cache.Canonical.order ts)))

let key_bytes_property =
  let tick =
    QCheck2.Gen.(oneof [ int_range 1 20_000; int_range 1 max_int; oneofl [ 1; 9; 10; 99; 100; max_int ] ])
  in
  qtest ~count:500 "key == Printf-formatted key"
    QCheck2.Gen.(pair (int_range 1 max_int) (list_size (int_range 1 6) (pair (triple tick tick tick) tick)))
    (fun (fpga_area, rows) ->
      let ts =
        Model.Taskset.of_list
          (List.mapi
             (fun i ((c, d, t), a) ->
               Model.Task.make ~name:(string_of_int i) ~exec:(Model.Time.of_ticks c)
                 ~deadline:(Model.Time.of_ticks d) ~period:(Model.Time.of_ticks t) ~area:a ())
             rows)
      in
      let delta = Cache.Delta.of_tasks (Model.Taskset.to_list ts) in
      List.for_all
        (fun analyzer ->
          let want = printf_key analyzer ~fpga_area ts in
          String.equal want (Cache.Canonical.key ~analyzer ~fpga_area ts)
          && String.equal want (Cache.Delta.key delta ~analyzer ~fpga_area))
        Core.Analyzer.[ dp; gn2 ])

(* --- LRU --- *)

let lru_eviction_order () =
  let lru = Cache.Lru.create ~metrics_prefix:"t.lru1" ~capacity:2 () in
  Cache.Lru.put lru "a" 1;
  Cache.Lru.put lru "b" 2;
  Cache.Lru.put lru "c" 3;
  (* capacity 2: inserting c evicts a, the least recently used *)
  check_str_list "a evicted" [ "c"; "b" ] (Cache.Lru.keys_mru lru);
  check_bool "a gone" true (Cache.Lru.find lru "a" = None);
  check_int "evictions" 1 (Cache.Lru.stats lru).Cache.Lru.evictions

let lru_find_promotes () =
  let lru = Cache.Lru.create ~metrics_prefix:"t.lru2" ~capacity:2 () in
  Cache.Lru.put lru "a" 1;
  Cache.Lru.put lru "b" 2;
  check_bool "hit" true (Cache.Lru.find lru "a" = Some 1);
  Cache.Lru.put lru "c" 3;
  (* the hit made a most-recent, so b is the eviction victim *)
  check_str_list "b evicted" [ "c"; "a" ] (Cache.Lru.keys_mru lru);
  let s = Cache.Lru.stats lru in
  check_int "hits" 1 s.Cache.Lru.hits;
  check_int "misses" 0 s.Cache.Lru.misses

let lru_overwrite () =
  let lru = Cache.Lru.create ~metrics_prefix:"t.lru3" ~capacity:2 () in
  Cache.Lru.put lru "a" 1;
  Cache.Lru.put lru "b" 2;
  Cache.Lru.put lru "a" 10;
  check_int "no growth" 2 (Cache.Lru.length lru);
  check_bool "new value" true (Cache.Lru.find lru "a" = Some 10);
  check_str_list "overwrite promotes" [ "a"; "b" ] (Cache.Lru.keys_mru lru)

let lru_disabled () =
  let lru = Cache.Lru.create ~metrics_prefix:"t.lru4" ~capacity:0 () in
  Cache.Lru.put lru "a" 1;
  check_int "stays empty" 0 (Cache.Lru.length lru);
  check_bool "every find misses" true (Cache.Lru.find lru "a" = None);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Cache.Lru.create ~metrics_prefix:"t.lru5" ~capacity:(-1) ()))

(* --- sharded LRU --- *)

let sharded_basics () =
  let c = Cache.Sharded.create ~metrics_prefix:"t.sh1" ~shards:4 ~capacity:16 () in
  check_int "shard count" 4 (Cache.Sharded.shards c);
  check_int "rounded-up capacity" 16 (Cache.Sharded.capacity c);
  let keys = List.init 12 (Printf.sprintf "key-%d") in
  List.iteri (fun i k -> Cache.Sharded.put c k i) keys;
  check_int "all stored" 12 (Cache.Sharded.length c);
  List.iteri
    (fun i k -> check_bool (Printf.sprintf "find %s" k) true (Cache.Sharded.find c k = Some i))
    keys;
  Cache.Sharded.put c "key-0" 100;
  check_int "overwrite does not grow" 12 (Cache.Sharded.length c);
  check_bool "overwritten" true (Cache.Sharded.find c "key-0" = Some 100)

let sharded_stats_summed () =
  let c = Cache.Sharded.create ~metrics_prefix:"t.sh2" ~shards:4 ~capacity:16 () in
  let keys = List.init 8 (Printf.sprintf "k%d") in
  (* 8 misses, then 8 hits, spread over the shards; the summed stats
     must account for every one exactly *)
  List.iter (fun k -> check_bool "miss" true (Cache.Sharded.find c k = None)) keys;
  List.iter (fun k -> Cache.Sharded.put c k 0) keys;
  List.iter (fun k -> check_bool "hit" true (Cache.Sharded.find c k = Some 0)) keys;
  let s = Cache.Sharded.stats c in
  check_int "misses summed" 8 s.Cache.Lru.misses;
  check_int "hits summed" 8 s.Cache.Lru.hits;
  check_int "no evictions" 0 s.Cache.Lru.evictions

let sharded_key_placement () =
  let c = Cache.Sharded.create ~metrics_prefix:"t.sh3" ~shards:8 ~capacity:8 () in
  List.iter
    (fun k ->
      let s = Cache.Sharded.shard_of_key c k in
      check_bool "in range" true (s >= 0 && s < 8);
      check_int "deterministic" s (Cache.Sharded.shard_of_key c k))
    [ ""; "a"; "key"; String.make 512 'z' ]

let sharded_degenerate () =
  let c = Cache.Sharded.create ~metrics_prefix:"t.sh4" ~shards:3 ~capacity:0 () in
  Cache.Sharded.put c "a" 1;
  check_int "capacity 0 disables" 0 (Cache.Sharded.length c);
  check_bool "every find misses" true (Cache.Sharded.find c "a" = None);
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Sharded.create: shards must be >= 1") (fun () ->
      ignore (Cache.Sharded.create ~metrics_prefix:"t.sh5" ~shards:0 ~capacity:8 ()))

(* --- cached verdicts vs fresh ones --- *)

let cached_equals_fresh () =
  let cache = Cache.Verdicts.create ~metrics_prefix:"t.v1" ~capacity:16 () in
  List.iter
    (fun analyzer ->
      let fresh ts = analyzer.Core.Analyzer.decide ~fpga_area:10 ts in
      let cached ts = Cache.Verdicts.decide cache ~analyzer ~fpga_area:10 ts in
      (* first call populates, second is served from the cache; both
         permutations must equal their own fresh computation *)
      check_str "miss path" (verdict_str (fresh table1)) (verdict_str (cached table1));
      check_str "hit path" (verdict_str (fresh table1)) (verdict_str (cached table1));
      check_str "hit, permuted request"
        (verdict_str (fresh table1_swapped))
        (verdict_str (cached table1_swapped)))
    (Core.Analyzer.all ());
  let s = Cache.Verdicts.stats cache in
  check_int "one miss per analyzer" (List.length (Core.Analyzer.all ())) s.Cache.Lru.misses;
  check_int "two hits per analyzer" (2 * List.length (Core.Analyzer.all ())) s.Cache.Lru.hits

(* random (C, D, T, A) rows with C <= min(D, T), as integers so any
   permutation is still a valid taskset *)
(* rows may violate C <= min(D,T) (D or T one below C), so analyzers
   that reject such tasks are exercised too *)
let rows_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6)
      (int_range 1 4 >>= fun c ->
       int_range (max 1 (c - 1)) 9 >>= fun d ->
       int_range (max 1 (c - 1)) 9 >>= fun t ->
       int_range 1 8 >>= fun a -> return (c, d, t, a)))

let taskset_of_rows name rows =
  Model.Taskset.of_list
    (List.mapi
       (fun i (c, d, t, a) ->
         Model.Task.make
           ~name:(Printf.sprintf "%s%d" name i)
           ~exec:(Model.Time.of_units c) ~deadline:(Model.Time.of_units d)
           ~period:(Model.Time.of_units t) ~area:a ())
       rows)

let remap_property =
  qtest ~count:300 "cached verdict equals fresh for permuted requests" rows_gen (fun rows ->
      QCheck2.assume (rows <> []);
      let ts = taskset_of_rows "p" rows in
      let ts_rev = taskset_of_rows "q" (List.rev rows) in
      let cache = Cache.Verdicts.create ~metrics_prefix:"t.v2" ~capacity:64 () in
      List.for_all
        (fun analyzer ->
          let fresh t = verdict_str (analyzer.Core.Analyzer.decide ~fpga_area:10 t) in
          let cached t = verdict_str (Cache.Verdicts.decide cache ~analyzer ~fpga_area:10 t) in
          (* prime with one order, then query the reverse: the cached
             verdict's checks must come back in the request's order *)
          String.equal (fresh ts) (cached ts)
          && String.equal (fresh ts_rev) (cached ts_rev))
        Core.Analyzer.[ dp; gn1; gn2; dp_original; gn1_printed; nec ])

let parallel_workers_share_cache () =
  (* the same shared cache queried from 4 worker domains must give the
     bytes the serial run gives, for every request *)
  let requests =
    Array.init 64 (fun i ->
        let rows = [ (1 + (i mod 3), 5, 5, 2 + (i mod 4)); (2, 6 + (i mod 2), 7, 3) ] in
        taskset_of_rows (Printf.sprintf "r%d" i) rows)
  in
  let run jobs =
    let cache = Cache.Verdicts.create ~metrics_prefix:"t.v3" ~capacity:32 () in
    Parallel.parallel_map ~jobs
      (fun ts ->
        verdict_str (Cache.Verdicts.decide cache ~analyzer:Core.Analyzer.gn2 ~fpga_area:10 ts))
      requests
  in
  let serial = run 1 and parallel = run 4 in
  Array.iteri (fun i s -> check_str (Printf.sprintf "request %d" i) s parallel.(i)) serial

let sharded_verdicts_equal_unsharded () =
  (* sharding the verdict store changes lock granularity only: for the
     same request sequence, a 4-shard cache returns the bytes the
     1-shard cache (and a fresh computation) returns *)
  let requests = [ table1; table1_swapped; table1; table1_swapped ] in
  let run shards =
    let cache =
      Cache.Verdicts.create ~metrics_prefix:(Printf.sprintf "t.v4s%d" shards) ~shards ~capacity:16 ()
    in
    List.map
      (fun ts ->
        verdict_str (Cache.Verdicts.decide cache ~analyzer:Core.Analyzer.gn2 ~fpga_area:10 ts))
      requests
  in
  check_int "default is one shard"
    1
    (Cache.Verdicts.shards (Cache.Verdicts.create ~metrics_prefix:"t.v5" ~capacity:4 ()));
  check_str_list "same bytes" (run 1) (run 4);
  List.iter2
    (fun cached ts ->
      check_str "equals fresh" (verdict_str (Core.Analyzer.gn2.Core.Analyzer.decide ~fpga_area:10 ts)) cached)
    (run 4) requests

let () =
  Alcotest.run "cache"
    [
      ( "canonical",
        [
          Alcotest.test_case "stable order" `Quick canonical_order_stable;
          Alcotest.test_case "apply" `Quick canonical_apply;
          Alcotest.test_case "key ignores order and names" `Quick key_ignores_order_and_names;
          Alcotest.test_case "key separates requests" `Quick key_separates_requests;
          key_bytes_property;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick lru_eviction_order;
          Alcotest.test_case "find promotes" `Quick lru_find_promotes;
          Alcotest.test_case "overwrite" `Quick lru_overwrite;
          Alcotest.test_case "capacity 0 disables" `Quick lru_disabled;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "basics" `Quick sharded_basics;
          Alcotest.test_case "stats summed" `Quick sharded_stats_summed;
          Alcotest.test_case "key placement" `Quick sharded_key_placement;
          Alcotest.test_case "degenerate" `Quick sharded_degenerate;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "cached equals fresh" `Quick cached_equals_fresh;
          remap_property;
          Alcotest.test_case "parallel workers share cache" `Quick parallel_workers_share_cache;
          Alcotest.test_case "sharded equals unsharded" `Quick sharded_verdicts_equal_unsharded;
        ] );
    ]
