"""Hash one full crawl's artifacts; run under different PYTHONHASHSEED values
to prove nothing leaks set/dict iteration order into outputs."""
import hashlib
import sys

sys.path.insert(0, "src")

from langcrawl.apiface import RateLimiter
from langcrawl.sched import Crawler, SchedulerConfig, SimClock
from langcrawl.simnet import DAY, World, WorldConfig
from langcrawl.store import Store, dumps

w = World(WorldConfig(seed=5, n_users=80, community_fractions={"el": 0.6, "en": 0.4}, mixed_fraction=0.1))
store = Store()
crawler = Crawler(w, store, RateLimiter(), SimClock(w), SchedulerConfig())
crawler.run(w.cfg.start_time + 5 * DAY)
w.frozen = True
crawler.drain()

log_blob = "\n".join(dumps(r) for r in crawler.log).encode()
print("runlog ", hashlib.sha256(log_blob).hexdigest()[:16], len(crawler.log))

import tempfile
from pathlib import Path

from langcrawl.model import CRAWLABLE
from langcrawl.vectorize import Vectorizer, export_vectors

with tempfile.TemporaryDirectory() as d:
    store.save(d)
    h = hashlib.sha256()
    for p in sorted(Path(d).iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    print("export ", h.hexdigest()[:16])

    vec = Vectorizer(store)
    users = sorted(store.users_in_class(*CRAWLABLE))
    vpath = Path(d) / "vectors.jsonl"
    export_vectors(vec, users, w.now, vpath)
    print("vectors", hashlib.sha256(vpath.read_bytes()).hexdigest()[:16], len(users))
