"""Unified data governance: one RBAC layer for graph AND vector data.

The paper's case for a unified system includes governance: "a single set of
access controls (e.g., role-based access control) for both vector data and
graph data" (Sec. 1), and the vector-search bitmap marks "all deleted and
unauthorized vectors as invalid" (Sec. 5.1).

Scenario: a clinical knowledge base.  Researchers may only see anonymized
records; the treating-physician role sees records from its own department;
admin sees everything.  The *same* role rules gate graph scans and vector
search — an unauthorized record can never leak through either path.

Run:  python examples/data_governance.py
"""

import numpy as np

from repro import TigerVectorDB

DIM = 24
DEPARTMENTS = ["cardiology", "oncology", "neurology"]
rng = np.random.default_rng(53)


def main() -> None:
    db = TigerVectorDB(segment_size=64)
    db.run_gsql(
        """
        CREATE VERTEX Record (id INT PRIMARY KEY, department STRING,
                              anonymized BOOL, summary STRING);
        ALTER VERTEX Record ADD EMBEDDING ATTRIBUTE case_emb
          (DIMENSION = 24, MODEL = clinical, INDEX = HNSW,
           DATATYPE = FLOAT, METRIC = L2);
        """
    )
    with db.begin() as txn:
        for i in range(150):
            txn.upsert_vertex(
                "Record", i,
                {
                    "department": DEPARTMENTS[i % 3],
                    "anonymized": i % 2 == 0,
                    "summary": f"case-{i}",
                },
            )
            txn.set_embedding("Record", i, "case_emb", rng.standard_normal(DIM))
    db.vacuum()

    # --- roles: one rule set governs both access paths --------------------
    db.access.create_role(
        "researcher", {"Record": lambda row: row["anonymized"]}
    )
    db.access.create_role(
        "cardiologist", {"Record": lambda row: row["department"] == "cardiology"}
    )

    query = rng.standard_normal(DIM).astype(np.float32)

    print("top-5 similar cases, per role:")
    for role in ("admin", "researcher", "cardiologist"):
        result = db.access.authorized_search(
            role, ["Record.case_emb"], query, k=5
        )
        rows = []
        with db.snapshot() as snap:
            for vtype, vid in result:
                row = snap.get_vertex(vtype, vid)
                rows.append((row["summary"], row["department"], row["anonymized"]))
        print(f"\n  role={role}:")
        for summary, dept, anon in sorted(rows):
            print(f"    {summary:10s} dept={dept:11s} anonymized={anon}")

    # --- the graph path obeys the same rules -------------------------------
    with db.snapshot() as snap:
        graph_view = db.access.visible_vertices("researcher", snap, "Record")
        bitmaps = db.access.authorization_bitmaps("researcher", snap, "Record")
    print(
        f"\nresearcher visibility: {len(graph_view)} records via graph scan, "
        f"{sum(b.count() for b in bitmaps)} via the vector bitmap — identical "
        f"by construction"
    )

    # --- attempted leak: filter cannot override authorization --------------
    from repro import VertexSet

    secret = VertexSet(("Record", db.vid_for("Record", pk)) for pk in (1, 3, 5))
    leaked = db.access.authorized_search(
        "researcher", ["Record.case_emb"], query, k=5, filter=secret
    )
    print(f"researcher asking for non-anonymized records explicitly: "
          f"{len(leaked)} results (authorization intersects the filter)")

    # --- the serving tiers enforce the same role, in the same search -------
    # A tenant's role is one more term of the search's pre-filter, so a
    # QueryServer and a 2-server ElasticTier answer the researcher exactly
    # as authorized_search does, distances included.
    from repro.core.auth import AuthorizationError
    from repro.elastic import ElasticTier
    from repro.graph.accumulators import MapAccum
    from repro.serve import QueryServer, ServeConfig, Tenant

    direct = db.access.authorized_search("researcher", ["Record.case_emb"], query, k=5)
    tenants = [Tenant("lab", role="researcher")]
    config = ServeConfig(workers=2)
    with QueryServer(db, config, tenants=tenants) as server:
        distances = MapAccum()
        served = server.search(
            ["Record.case_emb"], query, 5, tenant="lab", distance_map=distances
        )
        try:  # GSQL blocks enforce no row rules, so a role-scoped tenant is refused
            server.run_gsql("SELECT s FROM (s:Record) LIMIT 3", tenant="lab")
            gsql = "answered"
        except AuthorizationError as exc:
            gsql = f"refused ({type(exc).__name__})"
    with ElasticTier(db, num_servers=2, config=config, tenants=tenants) as tier:
        routed = tier.search(["Record.case_emb"], query, 5, tenant="lab")
    print(
        f"researcher through QueryServer / ElasticTier: same 5 records as the "
        f"direct call: {served == direct} / {routed == direct}; distance map "
        f"filled: {len(distances)}; served GSQL for that tenant: {gsql}"
    )
    db.close()


if __name__ == "__main__":
    main()
