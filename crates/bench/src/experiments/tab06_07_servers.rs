//! Tables 6–7 — server locations per game and the areas they serve,
//! plus the resulting primary-server assignment for a sample of player
//! locations (the §2.1 game-region logic).

use crate::{header, Args, Outcome, Text};
use tero_geoparse::Gazetteer;
use tero_types::{GameId, Location};
use tero_world::games::{corrected_distance_to, primary_server, server_locations};

pub(crate) fn run(_: &Args) -> Outcome {
    let mut text = Text::default();
    let gaz = Gazetteer::new();

    header(&mut text, "Tables 6-7: server locations");
    for game in GameId::ALL {
        let servers = server_locations(&gaz, game);
        writeln!(text);
        writeln!(text, "{game} ({} servers):", servers.len());
        for s in &servers {
            writeln!(text, "  {:<32} {}", s.location.to_string(), s.area);
        }
    }

    header(
        &mut text,
        "Primary-server assignment examples (paper's cases)",
    );
    let cases: [(&str, Location); 8] = [
        ("Greece (LoL)", Location::country("Greece")),
        ("Bolivia (LoL)", Location::country("Bolivia")),
        ("El Salvador (LoL)", Location::country("El Salvador")),
        ("Jamaica (LoL)", Location::country("Jamaica")),
        ("Hawaii (LoL)", Location::region("United States", "Hawaii")),
        ("Turkey (LoL)", Location::country("Turkey")),
        (
            "Illinois (LoL)",
            Location::region("United States", "Illinois"),
        ),
        ("South Korea (LoL)", Location::country("South Korea")),
    ];
    for (label, loc) in cases {
        let Some(server) = primary_server(&gaz, GameId::LeagueOfLegends, &loc) else {
            continue;
        };
        let d = corrected_distance_to(&gaz, &loc, &server).unwrap_or(0.0);
        writeln!(
            text,
            "  {label:<22} → {:<28} (corrected distance {d:>6.0} km)",
            server.location.to_string()
        );
    }
    writeln!(text);
    writeln!(
        text,
        "paper cross-checks: Greece→Amsterdam (2,068 km), Turkey→Istanbul (371 km),"
    );
    writeln!(
        text,
        "Bolivia→Santiago (1,968 km), Hawaii→Chicago (6,832 km), Korea→Seoul (166 km)."
    );
    Outcome::text(text)
}
