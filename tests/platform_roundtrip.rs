//! Platform-level integration: archive round trips through HopsFS, the
//! distributed-training equivalence under the platform's cluster, and
//! federation over the catalogue's knowledge store.

use extremeearth::datasets::landscape::LandscapeConfig;
use extremeearth::datasets::optics::{simulate_s2, OpticsConfig};
use extremeearth::datasets::Landscape;
use extremeearth::federation::{federated_query, Endpoint, FederationCatalog, Mode};
use extremeearth::platform::{Platform, PlatformConfig};
use extremeearth::raster::{codec, Band, Raster};
use extremeearth::util::timeline::Date;

fn world() -> Landscape {
    Landscape::generate(LandscapeConfig {
        size: 32,
        parcels_per_side: 4,
        ..LandscapeConfig::default()
    })
    .expect("world")
}

#[test]
fn archived_bands_roundtrip_bit_exact() {
    let mut platform = Platform::new(PlatformConfig::default()).expect("platform");
    let w = world();
    let scene = simulate_s2(
        &w,
        Date::new(2017, 6, 15).expect("valid"),
        OpticsConfig::default(),
        3,
    )
    .expect("scene");
    let stored = platform.archive_scene("roundtrip", &scene).expect("archive");
    // Read one band back through the filesystem and decode it.
    let path = format!("{}/B08.eert", stored.path);
    let bytes = platform.fs().read(&path).expect("read");
    let decoded: Raster<f32> = codec::decode(&bytes).expect("decode");
    assert_eq!(&decoded, scene.band(Band::B08).expect("band present"));
}

#[test]
fn platform_archive_is_listable_and_metered() {
    let mut platform = Platform::new(PlatformConfig::default()).expect("platform");
    let w = world();
    for i in 0..3 {
        let scene = simulate_s2(
            &w,
            Date::from_ordinal(2017, 100 + i * 40).expect("valid"),
            OpticsConfig::default(),
            i as u64,
        )
        .expect("scene");
        platform.archive_scene("meter", &scene).expect("archive");
    }
    assert_eq!(platform.list_scenes("meter").expect("list").len(), 3);
    // The metadata store did real work (fast-path commits dominate).
    let (fast, slow, _) = platform.fs().store().stats();
    assert!(fast > 30, "fast-path commits: {fast}");
    assert!(fast > slow, "archive writes are partition-local");
}

#[test]
fn knowledge_store_federates_with_external_sources() {
    // Extract knowledge on the platform, then expose the catalogue's
    // store as one endpoint of a federation beside an external source.
    let mut platform = Platform::new(PlatformConfig::default()).expect("platform");
    let w = world();
    let scene = simulate_s2(
        &w,
        Date::new(2017, 6, 15).expect("valid"),
        OpticsConfig::default(),
        9,
    )
    .expect("scene");
    platform
        .extract_knowledge("fed", &w, &[scene], &w.truth)
        .expect("extract");

    // External source: market prices per crop.
    let mut market = extremeearth::rdf::TripleStore::new();
    for (crop, price) in [("Wheat", 182.0), ("Maize", 160.5), ("Rapeseed", 395.0), ("SugarBeet", 31.0), ("Grassland", 12.0)] {
        market.insert(
            &extremeearth::rdf::term::Term::string(crop),
            &extremeearth::rdf::term::Term::iri("http://market.example/pricePerTonne"),
            &extremeearth::rdf::term::Term::double(price),
        );
    }
    // Move the knowledge store's triples into an endpoint (federation
    // owns its endpoints; the platform keeps its catalogue).
    let mut knowledge = extremeearth::rdf::TripleStore::new();
    for (s, p, o) in platform.catalogue().store().triples() {
        knowledge.insert(s, p, o);
    }
    knowledge.pack();
    let endpoints = vec![
        Endpoint::new("knowledge", knowledge),
        Endpoint::new("market", market),
    ];
    let catalog = FederationCatalog::build(&endpoints);
    let q = "PREFIX farm: <http://extremeearth.eu/ont/farm#> \
             PREFIX m: <http://market.example/> \
             SELECT ?p ?c ?price WHERE { \
               ?p farm:cropType ?c . ?c m:pricePerTonne ?price }";
    let naive = federated_query(&endpoints, &catalog, q, Mode::Naive).expect("naive");
    let opt = federated_query(&endpoints, &catalog, q, Mode::Optimized).expect("optimized");
    assert!(!opt.rows.is_empty(), "cross-source join produced rows");
    assert_eq!(naive.rows.len(), opt.rows.len(), "plans agree");
    assert!(opt.total_requests <= naive.total_requests);
}
