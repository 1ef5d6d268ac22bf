(* Binary min-heap on a growable array.  Index 0 is the minimum; children
   of [i] are [2i+1] and [2i+2]. *)

type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp = { cmp; data = [||]; size = 0 }

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let nd = Array.make ncap x in
  Array.blit t.data 0 nd 0 t.size;
  t.data <- nd

(* [push] and [pop_exn] sift by moving a hole instead of swapping: the
   displaced element is written once, where it lands.  They make the
   same comparisons as a swapping sift, so the heap ends in the same
   state, equal elements included. *)

let push t x =
  if t.size = Array.length t.data then grow t x;
  let data = t.data in
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && t.cmp x data.((!i - 1) / 2) < 0 do
    let parent = (!i - 1) / 2 in
    data.(!i) <- data.(parent);
    i := parent
  done;
  data.(!i) <- x

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Pqueue.pop_exn: empty heap";
  let data = t.data in
  let top = data.(0) in
  let size = t.size - 1 in
  t.size <- size;
  if size > 0 then begin
    let x = data.(size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let c = if l + 1 < size && t.cmp data.(l + 1) data.(l) < 0 then l + 1 else l in
        if t.cmp data.(c) x < 0 then begin
          data.(!i) <- data.(c);
          i := c
        end
        else continue := false
      end
    done;
    data.(!i) <- x
  end;
  top
