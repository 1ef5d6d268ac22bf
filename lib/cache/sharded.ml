type 'v t = { shards : 'v Lru.t array }

(* FNV-1a over the key bytes: deterministic across runs and processes
   (no per-process hash seed), cheap, and well-distributed for the
   canonical-key strings it is fed.  The multiplier is the 64-bit FNV
   prime; the offset basis is replaced by a large odd constant that
   fits OCaml's 63-bit native int (the canonical FNV basis does not). *)
let fnv1a key =
  let h = ref 0x2545f4914f6cdd1d in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    key;
  !h land max_int

let create ?metrics_prefix ?(shards = 8) ~capacity () =
  if shards < 1 then invalid_arg "Sharded.create: shards must be >= 1";
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  let per_shard = if capacity = 0 then 0 else (capacity + shards - 1) / shards in
  { shards = Array.init shards (fun _ -> Lru.create ?metrics_prefix ~capacity:per_shard ()) }

let shards t = Array.length t.shards
let shard_of_key t key = fnv1a key mod Array.length t.shards
(* one shard needs no hash: the key could only map to it *)
let shard t key =
  if Array.length t.shards = 1 then t.shards.(0) else t.shards.(shard_of_key t key)
let find t key = Lru.find (shard t key) key
let put t key value = Lru.put (shard t key) key value

let fold_shards f t =
  let acc = ref 0 in
  Array.iter (fun s -> acc := !acc + f s) t.shards;
  !acc

let capacity t = fold_shards Lru.capacity t
let length t = fold_shards Lru.length t

let stats t =
  Array.fold_left
    (fun acc s ->
      let st = Lru.stats s in
      {
        Lru.hits = acc.Lru.hits + st.Lru.hits;
        misses = acc.Lru.misses + st.Lru.misses;
        evictions = acc.Lru.evictions + st.Lru.evictions;
      })
    { Lru.hits = 0; misses = 0; evictions = 0 }
    t.shards
